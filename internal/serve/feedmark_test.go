package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"evoprot"
	"evoprot/internal/storage"
)

// markRecorder is a store that, for every feed marker written, pairs the
// marker with the checkpoint bytes written just before it.
type markRecorder struct {
	storage.Store
	mu    sync.Mutex
	ckpt  []byte
	pairs []markPair
}

type markPair struct {
	mark ckptMeta
	meta evoprot.CheckpointMeta
	err  error
}

func (m *markRecorder) Put(job, key string, data []byte) error {
	m.mu.Lock()
	switch key {
	case checkpointKey:
		m.ckpt = slices.Clone(data)
	case ckptMetaKey:
		var p markPair
		if p.err = json.Unmarshal(data, &p.mark); p.err == nil {
			p.meta, p.err = evoprot.PeekCheckpoint(bytes.NewReader(m.ckpt))
		}
		m.pairs = append(m.pairs, p)
	}
	m.mu.Unlock()
	return m.Store.Put(job, key, data)
}

// TestFeedMarkGenerationMatchesCheckpoint: every feed marker a run writes
// carries the generation PeekCheckpoint reads from the checkpoint written
// with it, periodic checkpoints and the cancellation-point one alike. The
// second island's budget ends long before the cancellation, so the last
// checkpoint holds islands at unequal generations, where the marker must
// report the leader's.
func TestFeedMarkGenerationMatchesCheckpoint(t *testing.T) {
	rec := &markRecorder{Store: storage.NewMem()}
	s, err := New(Config{Store: rec, Workers: 1, CheckpointEvery: 5, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	base := serveHTTP(t, s)

	spec := evoprot.JobSpec{
		Dataset:      "flare",
		Rows:         60,
		Generations:  100000,
		Islands:      2,
		MigrateEvery: 5,
		Seed:         11,
		PerIsland:    []evoprot.IslandConfig{{}, {Generations: 8}},
	}
	id := postJob(t, base, spec).ID
	waitFor(t, base, id, 60*time.Second, func(st JobStatus) bool { return st.Generation >= 30 })
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitFor(t, base, id, 60*time.Second, func(st JobStatus) bool { return st.State.Terminal() }); st.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", st.State)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.pairs) < 3 {
		t.Fatalf("%d feed markers written, want periodic ones plus the cancellation one", len(rec.pairs))
	}
	for i, p := range rec.pairs {
		if p.err != nil {
			t.Fatalf("marker %d: %v", i, p.err)
		}
		if p.mark.Generation != p.meta.Generation {
			t.Fatalf("marker %d has generation %d, its checkpoint peeks as %d", i, p.mark.Generation, p.meta.Generation)
		}
	}
	last := rec.pairs[len(rec.pairs)-1].meta
	if last.MinGeneration >= last.Generation {
		t.Fatalf("cancellation checkpoint islands at generations %d..%d, want unequal", last.MinGeneration, last.Generation)
	}
}
