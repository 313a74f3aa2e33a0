package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"adcache"
	"adcache/internal/vfs"
)

// TestGracefulShutdown runs the real binary end to end: serve, write,
// SIGTERM, and verify the process drains, closes the DB cleanly, and the
// acked write survives a restart.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "adcached-test-bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dbDir := filepath.Join(dir, "db")

	run := func() (*exec.Cmd, *bytes.Buffer) {
		cmd := exec.Command(bin, "-dir", dbDir, "-addr", addr, "-drain-timeout", "5s")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get("http://" + addr + "/v1/health")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return cmd, &out
				}
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				t.Fatalf("node never became healthy; output:\n%s", out.String())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	stop := func(cmd *exec.Cmd, out *bytes.Buffer) {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("signal: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("exit after SIGTERM: %v\n%s", err, out.String())
			}
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			t.Fatalf("process did not exit after SIGTERM; output:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "clean shutdown") {
			t.Fatalf("no clean-shutdown line in output:\n%s", out.String())
		}
	}

	cmd, out := run()
	req, _ := http.NewRequest(http.MethodPut, "http://"+addr+"/v1/kv/gk", strings.NewReader("gv"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		t.Fatalf("put = %d", resp.StatusCode)
	}
	stop(cmd, out)

	// The acked write must survive the clean close and be readable after
	// a restart from the same directory.
	cmd, out = run()
	resp, err = http.Get(fmt.Sprintf("http://%s/v1/kv/gk", addr))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body.String() != "gv" {
		t.Fatalf("readback after restart = %d %q, want 200 \"gv\"", resp.StatusCode, body.String())
	}
	stop(cmd, out)
}

// TestStoreLogsEngineEvents checks that a node's store reports engine
// error-handler events: a background flush that fails once must leave its
// retry line in the standard logger's output.
func TestStoreLogsEngineEvents(t *testing.T) {
	var logs bytes.Buffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	fs := vfs.NewFault(vfs.NewMem())
	db, err := openStore(fs, "db", 1<<20, adcache.StrategyAdCache)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	fs.Target(".sst")
	fs.FailCreates(1)
	// The fault fails the flush on whichever goroutine writes the table,
	// the caller's or the background worker's; either reports through the
	// error handler, and the retry heals it.
	if err := db.Flush(); err != nil && !errors.Is(err, vfs.ErrInjected) {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatalf("flush after the fault: %v", err)
	}
	// Close waits for the background worker, the other writer of logs.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if want := "lsm: background transient error (attempt 1"; !strings.Contains(logs.String(), want) {
		t.Errorf("log lacks %q; got:\n%s", want, logs.String())
	}
}
