//go:build !race

package interp

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates and would fail the alloc gate, and slows runs
// enough that the resume tests check fewer episodes.
const raceEnabled = false
