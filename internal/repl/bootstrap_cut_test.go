package repl

import (
	"bytes"
	"io"
	stdnet "net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/serve"
)

// cutProxy sits between one follower connection and the primary: what
// the follower sends passes freely, what the primary sends passes until
// limit bytes have crossed, then both sides are closed. cut is closed
// once that has happened.
func cutProxy(t *testing.T, primary string, limit int64) (addr string, cut <-chan struct{}) {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		down, err := ln.Accept()
		ln.Close() // one connection only: redials fail until the follower is killed
		if err != nil {
			return
		}
		defer down.Close()
		up, err := stdnet.Dial("tcp", primary)
		if err != nil {
			return
		}
		defer up.Close()
		go io.Copy(up, down) // ends when either side closes
		io.CopyN(down, up, limit)
	}()
	return ln.Addr().String(), done
}

// TestBootstrapCutMidShip severs a bootstrap at a quarter, a half and
// three quarters of the ship, with shards still being exported behind
// the files already on the wire, over a directory that holds a
// committed snapshot from an earlier bootstrap. Nothing may be
// committed by the cut session — the manifest is the last file of the
// pipeline — and a restart converges to the oracle whether it finds no
// position at all (a clean start) or a stale one to warm-open from (the
// previous committed state, if its files survived being overwritten).
func TestBootstrapCutMidShip(t *testing.T) {
	keys, payloads := testKeys(t, 6000)
	log := NewLog(4)
	st, err := serve.New(keys, payloads, serve.Config{Shards: 4, Family: "PGM", WriteHook: log.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := NewPrimary(st, log, "127.0.0.1:0", PrimaryConfig{
		heartbeatEvery: 5 * time.Millisecond,
		chunkSize:      2048, // many frames per file: the cut lands inside one
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	oracle := map[core.Key]uint64{}
	for i, k := range keys {
		oracle[k] = payloads[i]
	}

	dir := t.TempDir()
	cfg := FollowerConfig{
		Dir: dir, PrimaryAddr: p.Addr().String(),
		Store: serve.Config{Family: "PGM"}, syncEvery: 2, redialEvery: 5 * time.Millisecond,
	}
	converge := func() {
		t.Helper()
		f, err := StartFollower(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Stop()
		if err := f.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := f.WaitCaughtUp(log.Seqs(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		oracleCheck(t, f.Store(), oracle)
	}
	converge() // the committed snapshot every cut below ships over
	shipped := int64(p.Stats().SnapBytes)

	for quarter := int64(1); quarter <= 3; quarter++ {
		for i := 0; i < 200; i++ { // the next snapshot differs from the directory's
			k, v := keys[(int(quarter)*977+i*13)%len(keys)], uint64(quarter)<<40|uint64(i)
			st.Put(k, v)
			oracle[k] = v
		}
		// Void the position, so the subscription bootstraps: once by
		// leaving none, once by leaving one from a foreign epoch, which
		// also makes the follower warm-open the old snapshot first.
		if quarter == 2 {
			if err := writeState(dir, &state{epoch: 1, gen: 1, seqs: make([]uint64, 4)}); err != nil {
				t.Fatal(err)
			}
		} else if err := os.Remove(filepath.Join(dir, stateName)); err != nil {
			t.Fatal(err)
		}
		state, _ := os.ReadFile(filepath.Join(dir, stateName))
		manifest, err := os.ReadFile(filepath.Join(dir, persist.ManifestName))
		if err != nil {
			t.Fatal(err)
		}

		cutCfg := cfg
		var cut <-chan struct{}
		cutCfg.PrimaryAddr, cut = cutProxy(t, cfg.PrimaryAddr, shipped*quarter/4)
		f, err := StartFollower(cutCfg)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-cut:
		case <-time.After(10 * time.Second):
			t.Fatalf("cut %d/4: the ship never reached %d bytes", quarter, shipped*quarter/4)
		}
		f.Kill()

		if now, _ := os.ReadFile(filepath.Join(dir, persist.ManifestName)); !bytes.Equal(now, manifest) {
			t.Fatalf("cut %d/4: the severed bootstrap committed a manifest", quarter)
		}
		if now, _ := os.ReadFile(filepath.Join(dir, stateName)); !bytes.Equal(now, state) {
			t.Fatalf("cut %d/4: the severed bootstrap moved REPLSTATE", quarter)
		}
		converge()
	}
}
