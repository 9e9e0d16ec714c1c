//go:build race

package dense

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool deliberately drops items at random, so
// the arena's steady state is not allocation-free there.
const raceEnabled = true
