// Package benchstore is the machine-readable record of the repo's
// experiment results: a schema-versioned JSON record format (the
// BENCH_*.json artifacts bwbench emits next to its text tables), plus
// the comparison engine behind `bwbench compare`. Wall-clock cost of
// the monitor pipeline is measured by bwperf, not recorded here.
//
// A File is provenance metadata — schema version, emitting tool,
// buildinfo version and git revision, Go version and platform — plus a
// flat list of Records. Each Record is one experiment cell: the
// experiment id, a Config map of axes (kernel, transport, workers,
// batch, ...), a Values map of measured metrics (ns/op, events/sec,
// allocs/op), and a Counters map snapshotted from the internal/metrics
// registry the cell ran with. Records are identified by Key() —
// "experiment{k=v,...}" with config keys sorted — and a File never
// holds two records with the same key.
//
// Encoding is canonical: records sort by key, map keys serialize in
// sorted order (encoding/json's map behavior), and the layout is fixed
// indented JSON, so encoding the same results twice yields
// byte-identical files and artifact diffs stay reviewable. CreatedAt
// is the only field that varies between identical runs, and Compare
// ignores it.
//
// Compare classifies each metric by name and gates accordingly:
//
//   - allocs/op — any increase over base is a regression (the
//     zero-allocation hot paths must not quietly grow allocations);
//   - ns/op and *-rate metrics ending in "/sec" — a relative delta
//     beyond the tolerance (default ±10%) in the bad direction is a
//     regression; these are wall-clock derived, so they gate
//     same-machine comparisons and are skipped with SkipTime for
//     cross-machine ones;
//   - everything else, and all Counters, is informational context.
//
// A record or gated metric present in base but missing from head fails
// the comparison (lost coverage is a regression too); a new record in
// head is reported but passes.
package benchstore
