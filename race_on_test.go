//go:build race

package blockwatch

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation allocates and would fail the allocation gates.
const raceEnabled = true
