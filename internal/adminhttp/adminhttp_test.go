package adminhttp

import (
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockwatch/internal/metrics"
	"blockwatch/internal/remote"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("bw_test_hits_total", "test counter").Add(7)

	srv, err := Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, "bw_test_hits_total 7") {
		t.Fatalf("/metrics missing counter, got:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE bw_test_hits_total counter") {
		t.Fatalf("/metrics missing TYPE header, got:\n%s", body)
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	// pprof index and one sub-handler must answer; content is runtime-owned.
	if code, _ = get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
	if code, _ = get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", code)
	}
}

// TestHealthCallback: a non-empty health state flips /healthz to 503
// with the state in the body; back to "" restores the 200 "ok" probe.
func TestHealthCallback(t *testing.T) {
	state := ""
	srv, err := StartWithHealth("127.0.0.1:0", nil, func() string { return state })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}
	state = "draining"
	code, body = get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable || body != "draining\n" {
		t.Fatalf("draining /healthz = %d %q, want 503 %q", code, body, "draining\n")
	}
	state = ""
	if code, _ = get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("recovered /healthz = %d", code)
	}
}

func TestNilRegistryServesEmptyExposition(t *testing.T) {
	srv, err := Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, "http://"+srv.Addr()+"/metrics")
	if code != http.StatusOK || body != "" {
		t.Fatalf("nil-registry /metrics = %d %q, want 200 and empty", code, body)
	}
}

// TestHealthzUnderConcurrentDrain hammers /healthz from many goroutines
// while the daemon behind the health hook drains, the way a real health
// prober races a real shutdown. The race detector guards the handler
// path; each hammer additionally asserts the responses it saw are
// monotonic — once the probe reports 503 draining, it never reports
// 200 ok again.
func TestHealthzUnderConcurrentDrain(t *testing.T) {
	reg := metrics.NewRegistry()
	wire := remote.NewServer(remote.ServerConfig{Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go wire.Serve(ln)
	defer wire.Close()

	adm, err := StartWithHealth("127.0.0.1:0", nil, func() string {
		if wire.Draining() {
			return "draining"
		}
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	url := "http://" + adm.Addr() + "/healthz"
	if code, _ := get(t, url); code != http.StatusOK {
		t.Fatalf("pre-drain /healthz = %d, want 200", code)
	}

	// A raw connection holds one session open so Drain must wait for the
	// timeout — the window the hammers race.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Drain only waits for sessions the server has accepted; until the
	// handler runs, the held connection is just a queued dial and Drain
	// could finish before any hammer sees the draining state.
	active := reg.Gauge("bw_server_sessions_active", "")
	accepted := time.Now().Add(2 * time.Second)
	for active.Value() < 1 {
		if time.Now().After(accepted) {
			t.Fatal("the held connection never became a live session")
		}
		time.Sleep(time.Millisecond)
	}

	var (
		stop           = make(chan struct{})
		saw200, saw503 atomic.Uint64
		wg             sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sawDraining := false
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("GET /healthz: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if sawDraining {
						t.Error("/healthz flipped back to 200 after reporting draining")
						return
					}
					saw200.Add(1)
				case http.StatusServiceUnavailable:
					sawDraining = true
					saw503.Add(1)
				default:
					t.Errorf("/healthz status = %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// Let the hammers observe the healthy state before the drain starts.
	warmup := time.Now().Add(2 * time.Second)
	for saw200.Load() == 0 {
		if time.Now().After(warmup) {
			t.Fatal("no hammer observed the healthy state")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() {
		wire.Drain(5 * time.Second)
		close(drained)
	}()
	// Let the hammers observe the draining state, then stop them before
	// the drain completes (a fully closed daemon is no longer draining —
	// in production the process exits at that point).
	deadline := time.Now().Add(2 * time.Second)
	for !wire.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered the draining state")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	conn.Close() // release the held session so Drain finishes promptly
	<-drained

	if saw200.Load() == 0 || saw503.Load() == 0 {
		t.Fatalf("hammers saw %d ok and %d draining responses; want both > 0",
			saw200.Load(), saw503.Load())
	}
}
