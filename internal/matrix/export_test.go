package matrix

// SetSIMD lets the external tests (eigenroute_test.go) run linalg on both
// kernel paths.
var SetSIMD = setSIMD
