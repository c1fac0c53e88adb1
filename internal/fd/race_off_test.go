//go:build !race

package fd

const raceEnabled = false
