//go:build !race

package dense

// raceEnabled: see race_test.go.
const raceEnabled = false
