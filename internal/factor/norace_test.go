//go:build !race

package factor

// raceEnabled: see race_test.go.
const raceEnabled = false
