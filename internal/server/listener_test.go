package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestSlowHeaderClientDisconnected serves the API through NewHTTPServer
// on a real listener. A client that sends half a request header and then
// stalls must be disconnected once ReadHeaderTimeout passes, while a
// complete request on another connection is still answered.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	if IdleTimeout < 60*time.Second {
		t.Fatalf("IdleTimeout %v would cut kept-alive benchmark connections; want >= 60s", IdleTimeout)
	}
	s, err := New(Config{Workers: 1, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer(s.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
		_ = s.Shutdown(ctx)
	})

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete request: status %d", resp.StatusCode)
	}

	// The server closes the stalled connection without a response; the
	// read deadline only bounds the test if it does not.
	if err := slow.SetReadDeadline(time.Now().Add(ReadHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(bufio.NewReader(slow))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("stalled connection not closed after %v: %v", elapsed, err)
	}
	if len(rest) > 0 && !strings.HasPrefix(string(rest), "HTTP/1.1 4") {
		t.Fatalf("stalled connection got a non-error reply: %q", rest)
	}
	if elapsed < ReadHeaderTimeout-time.Second {
		t.Fatalf("stalled connection closed after %v, before ReadHeaderTimeout %v", elapsed, ReadHeaderTimeout)
	}
	t.Logf("stalled header client disconnected after %v", elapsed.Round(time.Millisecond))
}
