//go:build race

package spark

func init() { raceEnabled = true }
