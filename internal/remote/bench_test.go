package remote

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/monitor"
)

// BenchmarkRemoteLoopback measures the full out-of-process event path —
// Sender batching, relay drain, wire encode, loopback TCP, server
// decode, monitor checking — in events/op, with the disk spool off
// (the plain client) and on (every frame teed to a bounded file, the
// self-healing configuration). The stream is a consistent shared-branch
// pattern, so the run must end with zero violations and a Healthy
// client.
func BenchmarkRemoteLoopback(b *testing.B) {
	b.Run("spool=off", func(b *testing.B) { benchLoopback(b, false) })
	b.Run("spool=on", func(b *testing.B) { benchLoopback(b, true) })
}

func benchLoopback(b *testing.B, spoolOn bool) {
	const threads = 2
	_, plans := kernelPlans(b, "fft")
	branchID := sharedBranch(b, plans)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(ServerConfig{})
	go srv.Serve(ln)
	defer srv.Close()

	cfg := ClientConfig{
		Program: "bench", NumThreads: threads, Plans: plans,
	}
	if spoolOn {
		cfg.SpoolPath = filepath.Join(b.TempDir(), "bench.spool")
		cfg.SpoolMaxBytes = 1 << 30 // never overflow under -benchtime
	}
	client, err := Dial(ln.Addr().String(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	client.Start()
	senders := make([]*monitor.Sender, threads)
	for tid := range senders {
		senders[tid] = client.Sender(tid)
	}

	const genLen = 256 // events per thread per generation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i % genLen)
		for tid := 0; tid < threads; tid++ {
			senders[tid].Send(monitor.Event{
				Kind: monitor.EvBranch, Thread: int32(tid), BranchID: int32(branchID),
				Key1: key, Key2: 1, Sig: 7, Taken: true,
			})
		}
		if key == genLen-1 {
			for tid := 0; tid < threads; tid++ {
				senders[tid].Send(monitor.Event{Kind: monitor.EvFlush, Thread: int32(tid)})
			}
		}
	}
	b.StopTimer()
	for tid := 0; tid < threads; tid++ {
		senders[tid].Send(monitor.Event{Kind: monitor.EvDone, Thread: int32(tid)})
	}
	client.Close()
	if client.Detected() {
		b.Fatal("consistent stream produced a violation")
	}
	if client.Health() != monitor.Healthy {
		b.Fatalf("health = %v, want Healthy", client.Health())
	}
	b.ReportMetric(float64(threads), "events/op")
}

// sharedBranch returns a checked shared branch of the kernel's plan
// table (the branch every bench thread reports consistently).
func sharedBranch(b *testing.B, plans map[int]*core.CheckPlan) int {
	b.Helper()
	for id, p := range plans {
		if p.Checked() && p.Kind == core.CheckShared {
			return id
		}
	}
	b.Fatal("plan table has no shared checked branch")
	return -1
}

// BenchmarkServerSessions is the daemon scaling grid: concurrent
// sessions × threads per session, over loopback TCP and a unix socket.
// One op is one branch event on every thread of every session, so
// ns/op is the whole-daemon cost per event round across all sessions;
// events/op reports the fan-out. Every session must finish Healthy and
// violation-free.
func BenchmarkServerSessions(b *testing.B) {
	_, plans := kernelPlans(b, "fft")
	branchID := sharedBranch(b, plans)
	for _, transport := range []string{"tcp", "unix"} {
		for _, sessions := range []int{1, 4} {
			for _, threads := range []int{1, 4} {
				name := fmt.Sprintf("net=%s/sessions=%d/threads=%d", transport, sessions, threads)
				b.Run(name, func(b *testing.B) {
					benchServerSessions(b, transport, sessions, threads, plans, branchID)
				})
			}
		}
	}
}

func benchServerSessions(b *testing.B, transport string, sessions, threads int, plans map[int]*core.CheckPlan, branchID int) {
	var ln net.Listener
	var err error
	switch transport {
	case "tcp":
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	case "unix":
		ln, err = Listen("unix:" + filepath.Join(b.TempDir(), "bench.sock"))
	}
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(ServerConfig{})
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	clients := make([]*Client, sessions)
	sendTables := make([][]*monitor.Sender, sessions)
	for s := range clients {
		client, err := Dial(addr, ClientConfig{
			Program: fmt.Sprintf("bench-%d", s), NumThreads: threads, Plans: plans,
		})
		if err != nil {
			b.Fatal(err)
		}
		client.Start()
		clients[s] = client
		sendTables[s] = make([]*monitor.Sender, threads)
		for tid := range sendTables[s] {
			sendTables[s][tid] = client.Sender(tid)
		}
	}

	const genLen = 256 // events per thread per generation
	iters := b.N/sessions + 1
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(senders []*monitor.Sender) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := uint64(i % genLen)
				for tid := 0; tid < threads; tid++ {
					senders[tid].Send(monitor.Event{
						Kind: monitor.EvBranch, Thread: int32(tid), BranchID: int32(branchID),
						Key1: key, Key2: 1, Sig: 7, Taken: true,
					})
				}
				if key == genLen-1 {
					for tid := 0; tid < threads; tid++ {
						senders[tid].Send(monitor.Event{Kind: monitor.EvFlush, Thread: int32(tid)})
					}
				}
			}
		}(sendTables[s])
	}
	wg.Wait()
	b.StopTimer()
	for s, client := range clients {
		for tid := 0; tid < threads; tid++ {
			sendTables[s][tid].Send(monitor.Event{Kind: monitor.EvDone, Thread: int32(tid)})
		}
		client.Close()
		if client.Detected() {
			b.Fatal("consistent stream produced a violation")
		}
		if client.Health() != monitor.Healthy {
			b.Fatalf("session %d health = %v, want Healthy", s, client.Health())
		}
	}
	b.ReportMetric(float64(sessions*threads), "events/op")
}
