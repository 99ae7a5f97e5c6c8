package main

import "testing"

// TestRun boots the example end to end: two surrogates behind the
// front-end, 12 devices × 5 offloads, every one logged once.
func TestRun(t *testing.T) {
	n, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if n != 60 {
		t.Fatalf("front-end logged %d trace records, want 60", n)
	}
}
