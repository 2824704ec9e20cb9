package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestReadyzWaitsForRTRSync points -rtr-addr at a cache that accepts and
// never answers: /readyz must report 503 naming the rtr probe.
func TestReadyzWaitsForRTRSync(t *testing.T) {
	cache, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := cache.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()

	// Reserve a port for the admin endpoint so the test knows its URL.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	admin := probe.Addr().String()
	probe.Close()

	cfg := runConfig{
		listen:      "127.0.0.1:0",
		dir:         t.TempDir(),
		interval:    time.Hour,
		metricsAddr: admin,
		rtrAddr:     cache.Addr().String(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	var (
		code int
		body []byte
	)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + admin + "/readyz")
		if err == nil {
			code = resp.StatusCode
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("admin endpoint never answered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "rtr") {
		t.Errorf("/readyz = %d %q, want 503 naming rtr", code, body)
	}
}
