package main

import "testing"

func TestSelfTimesOverNestedSpans(t *testing.T) {
	spans := []Span{
		{Name: "httpapi.append", Start: 0, End: 100, Parent: -1},
		// Two overlapping nested children cover [10, 50): 40 ns.
		{Name: "bench.record", Start: 10, End: 30, Parent: 0},
		{Name: "bench.record", Start: 20, End: 50, Parent: 0},
		// A grandchild inside the second child.
		{Name: "bench.copy", Start: 25, End: 35, Parent: 2},
		// A nested child sticking out of its parent counts only inside.
		{Name: "bench.tail", Start: 90, End: 120, Parent: 0},
		// A detached child is subtracted whole, wherever it ran.
		{Name: "modelardb.append", Start: 200, End: 300, Parent: -1},
		{Name: "wal.append", Start: 400, End: 430, Parent: 5, Detached: true},
		{Name: "core.fit", Start: 500, End: 540, Parent: 5, Detached: true},
		{Name: "bench.sink", Start: 510, End: 515, Parent: 7},
	}
	got := SelfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 10, 10, 30, 100 - 30 - 40, 30, 40 - 5, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesTelescopeToRoots(t *testing.T) {
	// Detached and nested subtraction never loses time: the self times
	// of a tree add up to its root's duration.
	spans := []Span{
		{Name: "httpapi.query", Start: 0, End: 1000, Parent: -1},
		{Name: "query.rows", Start: 2000, End: 2900, Parent: 0, Detached: true},
		{Name: "sqlparse.parse", Start: 3000, End: 3010, Parent: 1, Detached: true},
		{Name: "query.execute", Start: 4000, End: 4700, Parent: 1, Detached: true},
		{Name: "query.merge", Start: 4600, End: 4650, Parent: 3},
		{Name: "storage.read", Start: 5000, End: 5300, Parent: 3, Detached: true},
		{Name: "core.decode", Start: 6000, End: 6200, Parent: 5, Detached: true},
	}
	var sum int64
	for _, s := range SelfTimes(spans) {
		sum += s
	}
	if sum != 1000 {
		t.Fatalf("self times add up to %d, want the root's 1000", sum)
	}
}

func TestSpanLayer(t *testing.T) {
	if l := (Span{Name: "storage.read"}).Layer(); l != "storage" {
		t.Fatal(l)
	}
}
