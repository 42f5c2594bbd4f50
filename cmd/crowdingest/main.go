// Command crowdingest drives append ingest into a crash-safe live
// store: every batch is WAL-logged before it is acknowledged, sealed
// into immutable segments at the configured threshold, and bounded by
// checkpoints so recovery replays only a suffix of the log. Killing the
// process at any instant — including mid-write — loses at most the
// unacknowledged tail; rerunning the same command resumes where the
// durable prefix ends.
//
// Usage:
//
//	crowdingest -dir live/ -batches 200 -rows 50        # ingest
//	crowdingest -dir live/ -batches 0                   # status only
//	crowdingest -dir live/ -batches 100 -export out.crow
//
// The store directory is self-describing: reopening recovers the
// checkpoint plus the WAL suffix and continues at the next batch ID.
// -seal-rows and -ckpt-rows must be kept consistent across runs over
// the same directory.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"crowdscope/internal/cli"
	"crowdscope/internal/model"
	"crowdscope/internal/store"
	"crowdscope/internal/wal"
	"flag"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "crowdingest: %v\n", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("crowdingest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "live store directory (created if absent)")
	batches := fs.Int("batches", 50, "batches to ingest this run (0 = just report status)")
	rows := fs.Int("rows", 40, "rows per batch")
	seed := fs.Uint64("seed", 1701, "content seed; rows are a pure function of (seed, batch)")
	syncS := fs.String("sync", "always", "WAL fsync policy: always, rotate or none")
	sealRows := fs.Int("seal-rows", 0, "rows per sealed segment (0 = default; keep consistent per directory)")
	ckptRows := fs.Int("ckpt-rows", 0, "checkpoint every N acknowledged rows (0 = default, -1 = never)")
	finalCkpt := fs.Bool("checkpoint", false, "force a checkpoint before exiting")
	export := fs.String("export", "", "also write an immutable snapshot of the live contents to this path")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if *rows <= 0 || *batches < 0 {
		return fmt.Errorf("-rows must be positive and -batches non-negative")
	}
	var sync wal.SyncPolicy
	switch *syncS {
	case "always":
		sync = wal.SyncAlways
	case "rotate":
		sync = wal.SyncRotate
	case "none":
		sync = wal.SyncNone
	default:
		return fmt.Errorf("unknown -sync %q (want always, rotate or none)", *syncS)
	}

	ls, err := store.OpenLive(*dir, store.LiveConfig{
		SealRows:       *sealRows,
		CheckpointRows: *ckptRows,
		Sync:           sync,
	})
	if err != nil {
		return fmt.Errorf("open live store: %w", err)
	}
	defer ls.Close()
	next := ls.NextBatch()
	fmt.Fprintf(stdout, "recovered %d rows (%d sealed segments), next batch %d\n",
		ls.Rows(), ls.SealedSegments(), next)

	ingested := 0
	for b := 0; b < *batches; b++ {
		batch := next + uint32(b)
		if err := ls.Append(genBatch(*seed, batch, *rows)); err != nil {
			return fmt.Errorf("append batch %d: %w", batch, err)
		}
		ingested += *rows
	}
	if *batches > 0 {
		fmt.Fprintf(stdout, "ingested %d rows in %d batches (batches %d..%d acked)\n",
			ingested, *batches, next, next+uint32(*batches)-1)
	}
	if *finalCkpt {
		if err := ls.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintf(stdout, "checkpointed at %d rows\n", ls.Rows())
	}
	if *export != "" {
		st := ls.View()
		f, err := os.Create(*export)
		if err != nil {
			return fmt.Errorf("create %s: %w", *export, err)
		}
		if _, err := st.WriteSnapshot(f, store.WriteOptions{}); err != nil {
			f.Close()
			return fmt.Errorf("export snapshot: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", *export, err)
		}
		fmt.Fprintf(stdout, "exported %d rows\n", st.Len())
	}
	fmt.Fprintf(stdout, "live store: %d rows, %d sealed segments\n", ls.Rows(), ls.SealedSegments())
	return nil
}

// genBatch derives one batch's rows purely from (seed, batch), so an
// interrupted run rerun with the same seed regenerates exactly the
// rows the durable prefix already holds.
func genBatch(seed uint64, batch uint32, rows int) []model.Instance {
	rng := rand.New(rand.NewSource(int64(seed) ^ int64(batch)*0x9E3779B9))
	out := make([]model.Instance, rows)
	base := int64(1400000000) + int64(batch)*3600
	for i := range out {
		start := base + int64(i)*7 + int64(rng.Intn(60))
		out[i] = model.Instance{
			Batch:    batch,
			TaskType: uint32(rng.Intn(8)),
			Item:     uint32(i),
			Worker:   uint32(100 + rng.Intn(50)),
			Start:    start,
			End:      start + 30 + int64(rng.Intn(600)),
			Trust:    float32(rng.Intn(1000)) / 1000,
			Answer:   uint32(rng.Intn(4)),
		}
	}
	return out
}
