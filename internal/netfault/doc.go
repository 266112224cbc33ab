// Package netfault drives deterministic network-fault campaigns against
// the out-of-process monitoring transport. It composes the transport
// fault models of internal/inject (inject.NetInjector: drops, stalls,
// partial writes, bit-flips at sampled frame indices) with a campaign
// engine in the style of inject.Campaign: an in-process reference run,
// a clean remote profiling run to size the sampling space, then a
// pre-sampled fault list executed by a worker pool against a
// campaign-owned daemon.
//
// A campaign verifies the self-healing contract end to end: the
// monitored program never hangs or crashes, CRC-32C catches every
// bit-flip, and with spooling enabled the verdict is identical to the
// in-process run — recovered live via reconnect, or sealed to disk and
// reproduced by offline replay. The contract-violating outcomes
// (VerdictLost, Hang, Crash) must count zero at any worker count.
//
// It lives outside internal/inject so that internal/remote's own tests
// can use the injector without an import cycle.
package netfault
