//go:build !race

package inject

// raceEnabled reports that this test binary was built with -race, which
// slows runs enough that the resume tests check fewer campaigns.
const raceEnabled = false
