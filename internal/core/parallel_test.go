package core

import (
	"math/rand"
	"testing"
	"time"
)

func TestParallelCFQLWorkersOption(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	db := randomDB(r, 12, 8, 2)
	e := NewParallelCFQL(0) // 0 selects the default pool
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 3)
	a := e.Query(q, QueryOptions{Workers: 1})
	b := e.Query(q, QueryOptions{Workers: 8})
	if !equalInts(a.Answers, b.Answers) {
		t.Fatalf("answers differ across worker counts: %v vs %v", a.Answers, b.Answers)
	}
}

func TestParallelCFQLDeadline(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	db := randomDB(r, 20, 8, 2)
	e := NewParallelCFQL(4)
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 3)
	res := e.Query(q, QueryOptions{Deadline: time.Now().Add(-time.Second)})
	if !res.TimedOut {
		t.Error("expired deadline should mark TimedOut")
	}
}
