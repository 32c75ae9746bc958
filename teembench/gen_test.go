package main

import (
	"bytes"
	"testing"
)

// The generator is the benchmark's only source of inputs: the same seed
// must give byte-identical documents, a different seed different ones.
func TestGeneratorIsSeeded(t *testing.T) {
	docs := func(seed int64) [][]byte {
		var out [][]byte
		c, err := campaignInputs(seed, denseScenarios)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c...)
		seq := sparseRequests(seed)
		for i := 0; i < 50; i++ {
			q, err := seq(i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, q.body("t"))
		}
		return out
	}
	a, b, c := docs(7), docs(7), docs(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("document %d differs between two runs of seed 7", i)
		}
	}
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			t.Fatalf("document %d identical across seeds 7 and 8", i)
		}
	}
	if d1, d2 := poissonDue(7, "main", 100, 10), poissonDue(7, "main", 100, 10); d1[9] != d2[9] {
		t.Fatal("schedule not seeded")
	}
}

// Every generated request must be one the daemon accepts and the
// in-process render can run.
func TestGeneratedRequestsRender(t *testing.T) {
	seq := sparseRequests(3)
	for i := 0; i < 20; i++ {
		q, err := seq(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := render(q, nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}
