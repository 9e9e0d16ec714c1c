//go:build race

package factor

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool deliberately drops items at random, so the
// kernels' arena-backed pack buffers are reallocated at random
// (TestRefactorizeAllocs counts allocations).
const raceEnabled = true
