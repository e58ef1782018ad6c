package main

import (
	"testing"

	"webcache/internal/trace"
)

func TestRefLRUEvictsLeastRecent(t *testing.T) {
	var reqs []trace.Request
	for _, u := range []string{"A", "B", "A", "C", "B", "A", "C"} {
		reqs = append(reqs, trace.Request{URL: u, Size: 5})
	}
	// Capacity 10 holds two documents: A B A(hit) C(evicts B) B(evicts A)
	// A(evicts C) C(evicts B).
	r := &refLRU{reqs: reqs, capacity: 10, index: map[string]int32{}}
	for pass := 0; pass < 2; pass++ {
		if hits, _ := r.run(); hits != 1 {
			t.Errorf("pass %d: %d hits, want 1", pass, hits)
		}
	}
	r.capacity = 15 // all three fit: A, B, C are hits after their first reference
	if hits, _ := r.run(); hits != 4 {
		t.Errorf("capacity 15: %d hits, want 4", hits)
	}
}

func TestNewRefLRUThinsTheTrace(t *testing.T) {
	reqs := make([]trace.Request, 10)
	for i := range reqs {
		reqs[i].URL = string(rune('a' + i))
	}
	r := newRefLRU(reqs, 400)
	if len(r.reqs) != 3 || r.reqs[1].URL != "e" || r.capacity != 100 {
		t.Errorf("thinned to %d requests (second %q), capacity %d; want 3, \"e\", 100", len(r.reqs), r.reqs[1].URL, r.capacity)
	}
}
