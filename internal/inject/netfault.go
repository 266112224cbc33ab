package inject

// Network-fault injection: the same methodology the campaign engine
// applies to branch and event faults, aimed at the out-of-process
// transport itself. A NetInjector wraps the client's net.Conn and fires
// one deterministic fault — a connection drop, a partial frame write, a
// stall, or a frame bit-flip — after a sampled number of wire frames
// have passed. The campaign that drives it (internal/netfault) verifies
// the self-healing contract: the monitored program never hangs or
// crashes, CRC-32C catches every bit-flip (a corrupted frame ends the
// daemon session, it never checks wrong data silently), and with
// spooling enabled the verdict is recovered live via reconnect or
// sealed to disk for offline replay, never lost.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// NetFaultKind selects the transport fault model.
type NetFaultKind int

// Transport fault models.
const (
	// NetDrop severs the connection just before the target frame.
	NetDrop NetFaultKind = iota + 1
	// NetPartial writes roughly half of the target frame, then severs
	// the connection (the daemon sees a torn frame).
	NetPartial
	// NetStall delays the target frame's write past the client's write
	// deadline (a slow daemon, modeled at the sender).
	NetStall
	// NetFlip flips one bit of the target frame in flight; the daemon's
	// CRC-32C (or frame parser) must reject it — never check it.
	NetFlip
)

// String names the fault kind.
func (k NetFaultKind) String() string {
	switch k {
	case NetDrop:
		return "drop"
	case NetPartial:
		return "partial-write"
	case NetStall:
		return "stall"
	case NetFlip:
		return "bit-flip"
	}
	return fmt.Sprintf("NetFaultKind(%d)", int(k))
}

// NetFaultPlan is one transport injection target.
type NetFaultPlan struct {
	Kind NetFaultKind
	// AfterFrames is the 1-based index of the wire frame the fault hits;
	// frames are counted across the whole session, including spool
	// replays after a reconnect. 0 disables firing (counting only).
	AfterFrames uint64
	// Bit selects the flipped bit for NetFlip (spread over the frame's
	// bytes: byte Bit/8 within the visible span, bit Bit%8).
	Bit uint
	// Stall is the NetStall delay.
	Stall time.Duration
}

// Injection errors surfaced to the client's transport layer.
var (
	errInjectedDrop    = errors.New("netfault: injected connection drop")
	errInjectedPartial = errors.New("netfault: injected partial write")
)

// NetInjector fires one NetFaultPlan on a wrapped connection. Its state
// is shared across every connection of a session (Wrap each dial, see
// remote.ClientConfig.WrapConn), so the fault fires exactly once even
// when the client reconnects. The frame scanner parses the outbound
// byte stream's framing (type, u32 length, payload, CRC) incrementally,
// so the target is a deterministic frame index, not a byte offset.
type NetInjector struct {
	mu     sync.Mutex
	plan   NetFaultPlan
	frames uint64
	hdr    [5]byte
	hdrN   int
	rem    int // payload+crc bytes left in the current frame
	fired  bool
}

// NewNetInjector returns an injector for one transport fault.
func NewNetInjector(plan NetFaultPlan) *NetInjector {
	return &NetInjector{plan: plan}
}

// Wrap decorates conn with the injector; the same injector may wrap
// every connection of a session.
func (ij *NetInjector) Wrap(conn net.Conn) net.Conn {
	return &faultConn{Conn: conn, ij: ij}
}

// Fired reports whether the fault has fired.
func (ij *NetInjector) Fired() bool {
	ij.mu.Lock()
	defer ij.mu.Unlock()
	return ij.fired
}

// Frames reports how many complete wire frames have passed the scanner.
func (ij *NetInjector) Frames() uint64 {
	ij.mu.Lock()
	defer ij.mu.Unlock()
	return ij.frames
}

type faultConn struct {
	net.Conn
	ij *NetInjector
}

func (fc *faultConn) Write(p []byte) (int, error) {
	ij := fc.ij
	ij.mu.Lock()
	if ij.fired {
		ij.mu.Unlock()
		return fc.Conn.Write(p)
	}
	// Scan p, stopping at the first byte of the target frame (if it
	// starts inside this chunk).
	off := 0
	target := -1
	for off < len(p) {
		if ij.hdrN == 0 && ij.rem == 0 &&
			ij.plan.AfterFrames > 0 && ij.frames+1 == ij.plan.AfterFrames {
			target = off
			break
		}
		if ij.hdrN < 5 {
			n := min(5-ij.hdrN, len(p)-off)
			copy(ij.hdr[ij.hdrN:], p[off:off+n])
			ij.hdrN += n
			off += n
			if ij.hdrN == 5 {
				ij.rem = int(binary.LittleEndian.Uint32(ij.hdr[1:])) + 4
			}
			continue
		}
		n := min(ij.rem, len(p)-off)
		ij.rem -= n
		off += n
		if ij.rem == 0 {
			ij.hdrN = 0
			ij.frames++
		}
	}
	if target < 0 {
		ij.mu.Unlock()
		return fc.Conn.Write(p)
	}
	ij.fired = true
	plan := ij.plan
	ij.mu.Unlock()

	switch plan.Kind {
	case NetDrop:
		n, _ := fc.Conn.Write(p[:target])
		fc.Conn.Close()
		return n, errInjectedDrop
	case NetPartial:
		cut := target + (len(p)-target)/2
		n, _ := fc.Conn.Write(p[:cut])
		fc.Conn.Close()
		return n, errInjectedPartial
	case NetFlip:
		q := make([]byte, len(p))
		copy(q, p)
		span := len(q) - target
		idx := target + int(plan.Bit/8)%span
		q[idx] ^= 1 << (plan.Bit % 8)
		return fc.Conn.Write(q)
	case NetStall:
		// Sleep through the write deadline; the underlying write then
		// reports the timeout (or, with deadlines off, merely delays).
		time.Sleep(plan.Stall)
	}
	return fc.Conn.Write(p)
}
