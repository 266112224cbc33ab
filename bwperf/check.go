package main

import (
	"fmt"
	"slices"

	"blockwatch"
)

// reference is what set-up learns about one kernel at one program seed:
// the unprotected output, and the in-process protected run's verdict
// and event count.
type reference struct {
	output     []uint64
	detected   bool
	violations []string
	events     uint64
}

// checkClean verifies one protected run against the unprotected
// reference: same output, no violation, a healthy monitor that dropped
// and quarantined nothing.
func checkClean(ref *reference, got *blockwatch.RunResult) error {
	switch {
	case got.Crashed || got.Hung:
		return fmt.Errorf("abnormal end (crashed=%v hung=%v)", got.Crashed, got.Hung)
	case !slices.Equal(got.Output, ref.output):
		return fmt.Errorf("output differs from the unprotected reference")
	case got.Detected || len(got.Violations) > 0:
		return fmt.Errorf("spurious violation on a clean run: %v", got.Violations)
	case got.Health != "healthy":
		return fmt.Errorf("monitor health %q", got.Health)
	case got.DroppedEvents != 0 || got.QuarantinedEvents != 0 || got.WatchdogFires != 0:
		return fmt.Errorf("dropped=%d quarantined=%d watchdog=%d",
			got.DroppedEvents, got.QuarantinedEvents, got.WatchdogFires)
	}
	return nil
}

// checkRemote is checkClean plus agreement with the in-process verdict
// and a session that neither reconnected nor sealed its spool.
func checkRemote(ref *reference, got *blockwatch.RunResult) error {
	if err := checkClean(ref, got); err != nil {
		return err
	}
	switch {
	case got.Detected != ref.detected || !slices.Equal(got.Violations, ref.violations):
		return fmt.Errorf("remote verdict differs from the in-process run")
	case got.RemoteReconnects != 0:
		return fmt.Errorf("%d remote reconnects", got.RemoteReconnects)
	case got.SealedTrace != "":
		return fmt.Errorf("verdict not delivered live (sealed to %s)", got.SealedTrace)
	}
	return nil
}

// tally is the deterministic part of a campaign result.
type tally struct {
	Injected, Activated, Benign, Detected, Crashed, Hung, SDC int
}

func tallyOf(c *blockwatch.CampaignResult) tally {
	return tally{c.Injected, c.Activated, c.Benign, c.Detected, c.Crashed, c.Hung, c.SDC}
}

// checkCampaign verifies that a repeated campaign (same kernel, same
// seed) reproduced the first tally exactly.
func checkCampaign(first, got tally) error {
	if got != first {
		return fmt.Errorf("campaign tally %+v differs from the first run's %+v", got, first)
	}
	return nil
}

// opCounter counts attempted and failed ops and keeps the first few
// failure reasons for the report.
type opCounter struct {
	attempted, failed int
	reasons           []string
}

// record counts one op; err non-nil means it failed.
func (c *opCounter) record(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.reasons) < 5 {
		c.reasons = append(c.reasons, err.Error())
	}
}

// okFrac is 1 − failed/attempted.
func (c *opCounter) okFrac() ratio {
	return ratio{float64(c.attempted - c.failed), float64(c.attempted)}
}
