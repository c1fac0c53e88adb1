//go:build race

package fd

// raceEnabled reports whether the race detector is instrumenting this
// build; its runtime allocates internally, which distorts AllocsPerRun.
const raceEnabled = true
