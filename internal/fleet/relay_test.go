package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"autopipe/internal/server"
)

// TestForwardedShedKeepsRetryAfter: a submission proxied to a full ring
// owner must carry the owner's derived Retry-After hint back through
// the gateway — dropping it at the relay hop would leave proxied
// clients with no backoff signal.
func TestForwardedShedKeepsRetryAfter(t *testing.T) {
	hb := 25 * time.Millisecond
	opts := func(int) server.Options { return server.Options{PoolSize: 1, MaxQueue: 1} }
	n1 := startNode(t, "n1", nil, hb, opts(0))
	n2 := startNode(t, "n2", []string{n1.n.cfg.Advertise}, hb, opts(1))
	waitFor(t, "membership convergence", func() bool {
		return n1.n.ring.Len() == 2 && n2.n.ring.Len() == 2
	})
	t.Cleanup(func() {
		// Short deadline: the huge runners never finish draining.
		for _, tn := range []*testNode{n2, n1} {
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			tn.n.Shutdown(ctx)
			cancel()
		}
	})

	spec, err := json.Marshal(hugeSpec())
	if err != nil {
		t.Fatal(err)
	}
	submit := func() *http.Response {
		resp, err := http.Post(n1.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Fill both nodes: pool 1 + queue 1 each, so once both report a
	// queued job every further submission is shed wherever it lands.
	waitFor(t, "both admission queues full", func() bool {
		submit()
		return n1.n.Registry().Depth() >= 1 && n2.n.Registry().Depth() >= 1
	})

	// Now hunt for a shed submission that was forwarded (gateway n1,
	// ring owner n2): its 429 must still carry Retry-After.
	checked := false
	for i := 0; i < 200 && !checked; i++ {
		before := n1.n.forwarded.Load()
		resp := submit()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submission %d on a full fleet = %d, want 429", i, resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 || ra > 30 {
			t.Fatalf("429 Retry-After = %q (forwarded=%v), want integer in [1,30]",
				resp.Header.Get("Retry-After"), n1.n.forwarded.Load() > before)
		}
		checked = n1.n.forwarded.Load() > before
	}
	if !checked {
		t.Fatal("no submission was ever forwarded to the peer owner")
	}
}

// TestForwardToUnreachableOwnerSheds503: when the ring owner cannot be
// reached but is not yet suspected, a forwarded submission is shed with
// 503 and the gateway's derived Retry-After, never an unexplained 5xx.
func TestForwardToUnreachableOwnerSheds503(t *testing.T) {
	hb := time.Minute // slow enough that n2 is never suspected here
	n1 := startNode(t, "n1", nil, hb, server.Options{PoolSize: 1})
	n2 := startNode(t, "n2", []string{n1.n.cfg.Advertise}, hb, server.Options{PoolSize: 1})
	waitFor(t, "membership convergence", func() bool {
		return n1.n.ring.Len() == 2 && n2.n.ring.Len() == 2
	})
	t.Cleanup(func() {
		n1.n.Kill()
		n2.n.Kill()
	})
	n2.srv.Close()

	spec, err := json.Marshal(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		before := n1.n.forwarded.Load()
		resp, err := http.Post(n1.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if n1.n.forwarded.Load() == before {
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("locally owned submission = %d, want 201", resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("forward to an unreachable owner = %d, want 503", resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 || ra > 30 {
			t.Fatalf("503 Retry-After = %q, want integer in [1,30]", resp.Header.Get("Retry-After"))
		}
		return
	}
	t.Fatal("no submission was ever forwarded to the peer owner")
}
