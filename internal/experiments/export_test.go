package experiments

import "rupam/internal/core"

// AblationCase is one ablationCases entry with its fields exported for
// the external test package.
type AblationCase struct {
	Name, Workload string
	RUPAM          core.Config
}

// AblationCases returns ablationCases in order.
func AblationCases() []AblationCase {
	cases := make([]AblationCase, len(ablationCases))
	for i, c := range ablationCases {
		cases[i] = AblationCase{Name: c.name, Workload: c.workload, RUPAM: c.cfg}
	}
	return cases
}
