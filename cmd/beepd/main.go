// Command beepd is the simulation job daemon: it serves the HTTP/JSON
// job API (submit, list, inspect, cancel, stream) backed by a bounded
// worker queue, checkpoints running jobs into its data directory, and
// recovers interrupted work on startup — a SIGKILL at any instant loses
// at most the rounds since the last checkpoint, and the resumed
// execution is bit-exact.
//
// Usage:
//
//	beepd -data /var/lib/beepd [-addr 127.0.0.1:8377] [-workers 2]
//
// SIGTERM or SIGINT drains gracefully: submissions are rejected with
// 503, running jobs checkpoint and park as "interrupted", and the next
// start resumes them. The actual listen address is published to
// <data>/beepd.addr for tooling.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "beepd:", err)
		os.Exit(1)
	}
}

// run parses args, serves until SIGTERM or SIGINT, then drains. The
// signal handler is installed before the daemon starts serving, so a
// signal that arrives as soon as the daemon answers still drains and
// checkpoints instead of killing the process by the default action.
func run(args []string) error {
	var cfg service.Config
	fs := flag.NewFlagSet("beepd", flag.ContinueOnError)
	fs.StringVar(&cfg.DataDir, "data", "", "state directory (required)")
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:0", "listen address (port 0 picks one; see <data>/beepd.addr)")
	fs.IntVar(&cfg.Workers, "workers", 2, "concurrent job runners")
	fs.IntVar(&cfg.QueueDepth, "queue", 16, "max jobs admitted but not yet running")
	fs.IntVar(&cfg.TenantQueueDepth, "tenant-queue", 0, "per-tenant queue bound (0 = same as -queue)")
	fs.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 64, "default auto-checkpoint cadence in rounds")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 20*time.Second, "graceful shutdown bound")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if cfg.DataDir == "" {
		return fmt.Errorf("-data is required")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	d, err := service.New(cfg)
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	s := <-sig
	fmt.Fprintf(os.Stderr, "beepd: %v: draining\n", s)
	return d.Shutdown(context.Background())
}
