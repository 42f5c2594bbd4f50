package query

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"crowdscope/internal/store"
)

// shardFiles shards testStore into an in-memory file map and returns the
// manifest plus the files.
func shardFiles(t *testing.T, nshards int) (*store.Manifest, map[string][]byte) {
	t.Helper()
	var mu sync.Mutex
	files := make(map[string][]byte)
	var manBuf bytes.Buffer
	man, err := testStore(t).WriteDataset(&manBuf, nshards, "q", func(name string) (io.WriteCloser, error) {
		buf := &bytes.Buffer{}
		return closeWriter{buf, func() {
			mu.Lock()
			files[name] = buf.Bytes()
			mu.Unlock()
		}}, nil
	}, store.WriteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return man, files
}

// closeWriter publishes the buffer on Close.
type closeWriter struct {
	*bytes.Buffer
	done func()
}

func (w closeWriter) Close() error { w.done(); return nil }

// openFrom opens shards from the file map, failing the named ones.
func openFrom(files map[string][]byte, fail map[string]error) store.OpenShard {
	return func(name string) (io.ReaderAt, int64, error) {
		if err, ok := fail[name]; ok {
			return nil, 0, err
		}
		data, ok := files[name]
		if !ok {
			return nil, 0, fmt.Errorf("%s: missing", name)
		}
		return bytes.NewReader(data), int64(len(data)), nil
	}
}

func TestRunDatasetMatchesRun(t *testing.T) {
	man, files := shardFiles(t, 3)
	d, err := store.OpenDataset(man, openFrom(files, nil))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{GroupBys: []GroupBy{GroupTaskType}, Value: ValueDuration}
	want := mustRun(t, testStore(t), q)
	got, err := Exec(context.Background(), Source{Dataset: d}, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%d groups, want %d", len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if got.Groups[i] != want.Groups[i] {
			t.Fatalf("group %d = %+v, want %+v", i, got.Groups[i], want.Groups[i])
		}
	}
	if got.Stats.ShardsOpened != 3 || got.Stats.ShardsPruned != 0 || got.Stats.ShardsSkipped != 0 {
		t.Fatalf("coverage %d/%d/%d, want 3 opened", got.Stats.ShardsOpened, got.Stats.ShardsPruned, got.Stats.ShardsSkipped)
	}
}

func TestRunDatasetDegradedSkipsFailedShards(t *testing.T) {
	man, files := shardFiles(t, 3)
	boom := errors.New("disk on fire")
	fail := map[string]error{man.Shards[1].Name: boom}
	q := Query{GroupBys: []GroupBy{GroupBatch}}

	// Strict (default) fails loudly, naming the shard.
	d, err := store.OpenDataset(man, openFrom(files, fail))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exec(context.Background(), Source{Dataset: d}, q, Options{}); !errors.Is(err, boom) {
		t.Fatalf("strict query over a failing shard: %v", err)
	}

	// Degraded skips it and annotates the result.
	d, err = store.OpenDataset(man, openFrom(files, fail))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(context.Background(), Source{Dataset: d}, q, Options{SkipFailedShards: true})
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if res.Stats.ShardsOpened != 2 || res.Stats.ShardsSkipped != 1 {
		t.Fatalf("coverage opened=%d skipped=%d, want 2/1", res.Stats.ShardsOpened, res.Stats.ShardsSkipped)
	}
	if len(res.SkippedShards) != 1 || res.SkippedShards[0].Name != man.Shards[1].Name || !errors.Is(res.SkippedShards[0].Err, boom) {
		t.Fatalf("skip annotation %+v", res.SkippedShards)
	}

	// The surviving shards' groups are intact; the failed shard's batches
	// are absent, not zero-filled.
	want := mustRun(t, testStore(t), q)
	failLo, failHi := man.Shards[1].BatchLo, man.Shards[1].BatchHi
	wantGroups := 0
	for _, g := range want.Groups {
		covered := uint32(g.Key) >= failLo && uint32(g.Key) < failHi
		if covered {
			continue
		}
		wantGroups++
		found := false
		for _, got := range res.Groups {
			if got == g {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("surviving group %+v missing from degraded result", g)
		}
	}
	if len(res.Groups) != wantGroups {
		t.Fatalf("%d groups in degraded result, want %d", len(res.Groups), wantGroups)
	}
}

func TestRunDatasetDegradedCleanIsIdentical(t *testing.T) {
	man, files := shardFiles(t, 2)
	d, err := store.OpenDataset(man, openFrom(files, nil))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{GroupBys: []GroupBy{GroupWorker}, Value: ValueTrust}
	strict, err := Exec(context.Background(), Source{Dataset: d}, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := Exec(context.Background(), Source{Dataset: d}, q, Options{SkipFailedShards: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Groups) != len(degraded.Groups) {
		t.Fatalf("degraded mode changed a clean query: %d vs %d groups", len(degraded.Groups), len(strict.Groups))
	}
	for i := range strict.Groups {
		if strict.Groups[i] != degraded.Groups[i] {
			t.Fatalf("group %d differs: %+v vs %+v", i, strict.Groups[i], degraded.Groups[i])
		}
	}
	if degraded.Stats.ShardsSkipped != 0 || len(degraded.SkippedShards) != 0 {
		t.Fatal("clean degraded query reported skips")
	}
}
