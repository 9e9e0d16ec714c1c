//go:build !race

package pselinv

// raceEnabled: see race_test.go.
const raceEnabled = false
