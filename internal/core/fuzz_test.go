package core

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzCharDBLoad feeds Load arbitrary bytes. It must never panic; a
// rejected input must leave the database exactly as it was; an accepted
// input must Save to bytes that Load back to the same records. Of the two
// one-record seeds, the first names a history other than its positive
// counts and is rejected; the second agrees and loads. The seed corpus in
// testdata holds one real saved database, written by `rupam-sim -workload
// MatMul -scheduler rupam -partitions 1 -iterations 1 -input 0.1 -chardb
// FILE`, and two records Save never writes.
func FuzzCharDBLoad(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("[]"))
	f.Add([]byte(`[{"signature":"s","partition":1,"history":["cpu"],"bottleneck_counts":{"net":2},"oom_nodes":["n"]}]`))
	f.Add([]byte(`[{"signature":"s","partition":1,"history":["cpu","net"],"bottleneck_counts":{"cpu":1,"net":2},"oom_nodes":["n"]}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		db := populatedDB(t)
		before := saved(t, db)
		if err := db.Load(bytes.NewReader(data)); err != nil {
			if after := saved(t, db); !bytes.Equal(before, after) {
				t.Fatalf("rejected load (%v) changed the database:\n%s\nwant\n%s", err, after, before)
			}
			return
		}
		out := saved(t, db)
		again := NewCharDB()
		if err := again.Load(bytes.NewReader(out)); err != nil {
			t.Fatalf("saved database does not load: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again.store, db.store) {
			t.Fatalf("save/load round trip changed the records:\n%s\nreloaded as\n%s", out, saved(t, again))
		}
	})
}

// saved returns the database's Save bytes.
func saved(t *testing.T, db *CharDB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
