package main

import "testing"

// Self time is a span's duration minus the union of its children's
// intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "submit", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "run", Start: 20, End: 60},
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "engine", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	want := map[string]int64{"job": 100 - 50 - 10, "submit": 20, "run": 30, "late": 30, "engine": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: self %d, want %d", k, got[k], v)
		}
	}
	var off *tracer
	if id := off.begin("x", 0, ""); id != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
}
