// Package wire is the compact, versioned binary codec shared by the
// out-of-process monitoring path (internal/remote, cmd/bwmonitord) and
// the on-disk trace format (internal/trace, cmd/bwtrace). A stream is a
// sequence of length-prefixed, CRC-guarded frames:
//
//	frame := type(1) | payloadLen(u32 LE) | payload | crc32c(u32 LE)
//
// where the CRC covers the type byte and the payload. A branch event is
// a fixed-width record of 29 bytes instead of Event's 40 (see
// WriteEvents): its keys and signature are random 64-bit hashes, which
// varints would not shrink. The other frames' fields are varints
// (unsigned for counts, zigzag for signed identifiers).
//
// The frame vocabulary mirrors the monitor's event model: a stream opens
// with a Hello frame (magic, version, thread count, and the check-plan
// table reduced to the fields the checker consumes), carries Events
// frames (one thread's batch of branch events — a frame never mixes
// threads and never contains control events, mirroring the Sender
// flush-before-control rule, so a frame can never split a barrier),
// explicit Flush/Done control-marker frames, a Finish frame when every
// thread is done, and finally a Result frame carrying the checking
// outcome (violations, stats, health).
//
// Decoding is total: corrupt input produces an error, never a panic, and
// a CRC mismatch is always rejected (FuzzWireDecode pins both
// properties). That is what lets the remote client fail open on a
// garbled connection and lets bwtrace refuse a truncated trace cleanly.
package wire
