//go:build race

package interp

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates and would fail the alloc gate.
const raceEnabled = true
