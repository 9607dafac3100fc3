//go:build race

package federation

func init() { raceEnabled = true }
