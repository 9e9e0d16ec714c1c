//go:build race

package server

// raceEnabled reports that this test binary was built with the race
// detector, which slows the ordering and engine phases by different
// factors; the load test then checks only sanity, not the 1.5x speedup SLO.
const raceEnabled = true
