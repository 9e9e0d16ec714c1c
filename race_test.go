//go:build race

package pselinv

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool deliberately drops items at random —
// the dense arena's recycling (what TestWarmRefactorizeAllocBudget pins) is
// defeated by construction there.
const raceEnabled = true
