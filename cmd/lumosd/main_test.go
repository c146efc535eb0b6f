package main

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerTimeouts pins the connection timeouts both listeners
// get: header-read and idle deadlines set, no body or response deadline.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	s := newHTTPServer("127.0.0.1:0", h)
	if s.Addr != "127.0.0.1:0" || s.Handler == nil {
		t.Fatalf("server not bound to its address and handler: %+v", s)
	}
	if s.ReadHeaderTimeout != readHeaderTimeout || s.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", s.ReadHeaderTimeout, readHeaderTimeout)
	}
	if s.IdleTimeout != idleTimeout || s.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", s.IdleTimeout, idleTimeout)
	}
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Fatalf("read/write timeouts must stay unset, got %v/%v", s.ReadTimeout, s.WriteTimeout)
	}
}
