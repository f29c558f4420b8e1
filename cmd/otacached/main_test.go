package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"otacache/internal/cache"
	"otacache/internal/engine"
	"otacache/internal/server"
	"otacache/internal/stack"
)

// daemonProc is one running otacached child plus its captured log.
type daemonProc struct {
	cmd *exec.Cmd

	mu  sync.Mutex
	log strings.Builder
}

func (d *daemonProc) Log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// waitLog polls the captured log for re until timeout, returning the
// first submatch (or the whole match).
func (d *daemonProc) waitLog(t *testing.T, re *regexp.Regexp, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(d.Log()); m != nil {
			return m[len(m)-1]
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("log never matched %v; log so far:\n%s", re, d.Log())
	return ""
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "otacached")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building otacached: %v\n%s", err, out)
	}
	return bin
}

// Write appends stderr output under the log lock. Handing exec an
// io.Writer (not a pipe) makes cmd.Wait block until the copier drains,
// so no trailing log lines are lost at exit.
func (d *daemonProc) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Write(p)
}

func startDaemon(t *testing.T, bin string, args ...string) *daemonProc {
	t.Helper()
	d := &daemonProc{cmd: exec.Command(bin, args...)}
	d.cmd.Stderr = d
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	return d
}

var servingRe = regexp.MustCompile(`serving .* on (127\.0\.0\.1:\d+)`)

// TestDaemonSIGTERMDrainAndSnapshotRestart exercises the full process
// lifecycle over a real socket: the daemon comes up behind its /readyz
// gate, serves object traffic, and on SIGTERM drains in flight
// requests, refuses new ones, writes a final snapshot, and exits 0. A
// second daemon started on the same snapshot file restores the warm
// state before reporting ready.
func TestDaemonSIGTERMDrainAndSnapshotRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real daemon twice")
	}
	bin := buildDaemon(t)
	snapPath := filepath.Join(t.TempDir(), "state.snap")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-mode", "proposal",
		"-photos", "3000",
		"-snapshot", snapPath,
		"-snapshot-interval", "1h", // only the final drain write matters here
		"-drain-timeout", "10s",
	}

	d := startDaemon(t, bin, args...)
	addr := d.waitLog(t, servingRe, 60*time.Second)
	c := server.NewClient("http://"+addr, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx, 0); err != nil {
		t.Fatalf("daemon never became ready: %v\nlog:\n%s", err, d.Log())
	}

	// Traffic through the SIGTERM moment: a background worker hammers
	// the daemon; whatever the drain does, it must never surface a 5xx —
	// in-flight requests complete, refused ones fail at the connection.
	feat := []float64{1, 2, 3, 4, 5}
	stopTraffic := make(chan struct{})
	trafficDone := make(chan string, 1)
	go func() {
		w := server.NewClient("http://"+addr, 1)
		w.SetRetry(server.RetryConfig{MaxAttempts: 1})
		for i := uint64(0); ; i++ {
			select {
			case <-stopTraffic:
				trafficDone <- ""
				return
			default:
			}
			if _, err := w.Lookup(i%4096, 256, feat); err != nil {
				if strings.Contains(err.Error(), "server: 5") {
					trafficDone <- err.Error()
					return
				}
				// Connection-level failure: the daemon is refusing new
				// requests mid-drain, which is exactly the contract.
			}
		}
	}()

	// Let some requests land, then deliver SIGTERM mid-traffic.
	for i := uint64(0); i < 200; i++ {
		if _, err := c.Lookup(i, 256, feat); err != nil {
			t.Fatalf("pre-drain request %d: %v", i, err)
		}
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// The process must exit 0 on its own (no Kill from cleanup).
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exited uncleanly after SIGTERM: %v\nlog:\n%s", err, d.Log())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit within 30s of SIGTERM\nlog:\n%s", d.Log())
	}
	close(stopTraffic)
	if msg := <-trafficDone; msg != "" {
		t.Fatalf("traffic saw a 5xx during drain: %s", msg)
	}

	logText := d.Log()
	for _, want := range []string{"draining", "final snapshot:", "drained cleanly"} {
		if !strings.Contains(logText, want) {
			t.Errorf("shutdown log missing %q:\n%s", want, logText)
		}
	}
	// New requests are refused once the process is gone.
	if err := c.Health(); err == nil {
		t.Error("daemon still answering /healthz after clean exit")
	}
	fi, err := os.Stat(snapPath)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("final snapshot missing or empty: fi=%v err=%v", fi, err)
	}

	// Restart on the same snapshot: the second daemon restores the warm
	// state behind its readiness gate and serves again.
	d2 := startDaemon(t, bin, args...)
	addr2 := d2.waitLog(t, servingRe, 60*time.Second)
	c2 := server.NewClient("http://"+addr2, 2)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if err := c2.WaitReady(ctx2, 0); err != nil {
		t.Fatalf("restarted daemon never became ready: %v\nlog:\n%s", err, d2.Log())
	}
	restoredRe := regexp.MustCompile(`snapshot: restored (\d+) residents`)
	if n := d2.waitLog(t, restoredRe, 5*time.Second); n == "0" {
		t.Errorf("restart restored 0 residents\nlog:\n%s", d2.Log())
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Value("ota_residents", -1) == 0 {
		t.Errorf("restarted daemon serving with empty cache: %+v", st.Cumulative)
	}
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited2 := make(chan error, 1)
	go func() { exited2 <- d2.cmd.Wait() }()
	select {
	case err := <-exited2:
		if err != nil {
			t.Fatalf("restarted daemon exited uncleanly: %v\nlog:\n%s", err, d2.Log())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("restarted daemon did not exit within 30s\nlog:\n%s", d2.Log())
	}
}

// TestDaemonFlashFlagValidation pins the startup validation of every
// assembly flag, in every mode: a bad flash geometry, a drill knob
// without the flash layer, an unknown breaker fallback or policy, or a
// -model outside proposal mode must fail fast with a message naming
// the flag, before the bootstrap trace is even loaded. A daemon that
// starts anyway is killed at the deadline and fails its row.
func TestDaemonFlashFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the real daemon")
	}
	bin := buildDaemon(t)
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-flash-segment-size", "-5"}, "-flash-segment-size must be positive"},
		{[]string{"-flash-segment-size", "4096", "-flash-overprovision", "1.0"}, "-flash-overprovision must exceed 1.0"},
		{[]string{"-flash-segment-size", "4096", "-flash-overprovision", "0.5"}, "-flash-overprovision must exceed 1.0"},
		{[]string{"-flash-segment-size", "4096", "-flash-overprovision", "NaN"}, "-flash-overprovision must exceed 1.0"},
		{[]string{"-flash-segment-size", "4096", "-flash-overprovision", "+Inf"}, "-flash-overprovision must exceed 1.0"},
		{[]string{"-flash-segment-size", "4096", "-flash-spare-blocks", "-1"}, "-flash-spare-blocks must not be negative"},
		{[]string{"-flash-scrub-interval", "1s"}, "requires -flash-segment-size"},
		{[]string{"-flash-fault-flip-every", "10"}, "requires -flash-segment-size"},
		{[]string{"-mode", "original", "-breaker-fallback", "bogus"}, "unknown -breaker-fallback"},
		{[]string{"-mode", "proposal", "-breaker-fallback", "bogus"}, "unknown -breaker-fallback"},
		{[]string{"-mode", "bogus"}, "unknown mode"},
		{[]string{"-policy", "bogus"}, "unknown -policy"},
		{[]string{"-engine-shards", "0"}, "-engine-shards must be >= 1"},
		{[]string{"-mode", "original", "-model", "absent.tree"}, "-model requires -mode proposal"},
		{[]string{"-frac", "0"}, "-frac must be positive"},
		{[]string{"-bytes", "-1"}, "-bytes must not be negative"},
		{[]string{"-shards", "-1"}, "-shards must not be negative"},
		{[]string{"-v", "-1"}, "-v must be finite and not negative"},
		{[]string{"-samples", "0"}, "-samples must be positive"},
		{[]string{"-breaker-latency", "-1s"}, "-breaker-latency must not be negative"},
		{[]string{"-breaker-threshold", "-1"}, "-breaker-threshold must not be negative"},
		{[]string{"-breaker-cooldown", "-1s"}, "-breaker-cooldown must not be negative"},
		{[]string{"-flash-segment-size", "4096", "-flash-scrub-interval", "-1s"}, "-flash-scrub-interval must not be negative"},
	}
	for _, tc := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		args := append([]string{"-addr", "127.0.0.1:0", "-photos", "2000"}, tc.args...)
		out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
		started := err == nil || ctx.Err() != nil
		cancel()
		if started {
			t.Errorf("otacached %v started despite invalid flags", tc.args)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("otacached %v: error does not name the problem (want %q):\n%s", tc.args, tc.want, out)
		}
	}
}

// TestFlagDefaults pins otacached's command line: every flag keeps its
// name and default, and those defaults, spelled out as arguments onto
// a zero Config, parse to stack.Defaults — so a flag whose default or
// target field drifts from Defaults fails here.
func TestFlagDefaults(t *testing.T) {
	want := map[string]string{
		"addr": ":8344", "policy": "lru", "mode": "original", "photos": "60000", "trace": "",
		"seed": "42", "bytes": "0", "frac": "0.15", "shards": "0", "engine-shards": "1",
		"v": "0", "samples": "100", "no-history-table": "false", "no-retrain": "false",
		"retrain-hour": "5", "model": "", "max-conns": "0", "timeout": "5s", "drain-timeout": "30s",
		"snapshot": "", "snapshot-interval": "5m0s",
		"flash-segment-size": "0", "flash-overprovision": "1.15", "flash-spare-blocks": "0",
		"flash-scrub-interval": "0s", "flash-fault-read-every": "0", "flash-fault-flip-every": "0",
		"flash-fault-program-every": "0", "flash-fault-erase-every": "0",
		"sample-every": "0", "trace-cap": "0", "trace-every": "0", "pprof-addr": "",
		"breaker-fallback": "admit-all", "breaker-latency": "0s", "breaker-threshold": "3", "breaker-cooldown": "1s",
	}
	fs := flag.NewFlagSet("otacached", flag.ContinueOnError)
	o := bindFlags(fs)
	got := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag defaults\n got %v\nwant %v", got, want)
	}

	o.cfg = stack.Config{}
	var args []string
	for name, v := range want {
		args = append(args, "-"+name+"="+v)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.cfg, stack.Defaults()) {
		t.Errorf("default flags assemble\n%+v\nwant stack.Defaults()\n%+v", o.cfg, stack.Defaults())
	}
}

// TestDaemonCorruptSnapshotColdStart is the corrupted-state boot: the
// snapshot file exists but is truncated mid-shard-section (a crash
// during rotation, a bad disk). The daemon must log the failed restore,
// discard the file's content, and serve cold — no crash, no half-warm
// cache, no 5xx.
func TestDaemonCorruptSnapshotColdStart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real daemon")
	}
	bin := buildDaemon(t)

	// Forge a valid 2-shard snapshot in-process, then cut it mid-stream.
	src := make([]*engine.Engine, 2)
	for i := range src {
		eng, err := engine.New(cache.NewLRU(1<<20), nil)
		if err != nil {
			t.Fatal(err)
		}
		src[i] = eng
	}
	se, err := engine.NewShardedEngine(src, 7)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 400; key++ {
		se.Lookup(key, 512, se.NextTick(), nil)
	}
	var buf bytes.Buffer
	if _, err := server.WriteSnapshot(&buf, se); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	snapPath := filepath.Join(t.TempDir(), "state.snap")
	if err := os.WriteFile(snapPath, valid[:2*len(valid)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, bin,
		"-addr", "127.0.0.1:0",
		"-photos", "2000",
		"-snapshot", snapPath,
		"-snapshot-interval", "1h",
	)
	addr := d.waitLog(t, servingRe, 60*time.Second)
	d.waitLog(t, regexp.MustCompile(`snapshot: restore failed, serving cold`), 30*time.Second)

	c := server.NewClient("http://"+addr, 1)
	c.SetRetry(server.RetryConfig{MaxAttempts: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx, 0); err != nil {
		t.Fatalf("daemon never became ready after failed restore: %v\nlog:\n%s", err, d.Log())
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Value("ota_residents", -1); n != 0 {
		t.Fatalf("failed restore left %v residents; cold start must be exactly cold", n)
	}
	// The cold daemon serves: a miss then a hit, no 5xx.
	if res, err := c.Lookup(1, 256, nil); err != nil || res.Hit {
		t.Fatalf("first lookup after cold start: res=%+v err=%v", res, err)
	}
	if res, err := c.Lookup(1, 256, nil); err != nil || !res.Hit {
		t.Fatalf("second lookup after cold start: res=%+v err=%v", res, err)
	}
}

// TestDaemonFlashDrillAndScrub boots the daemon with the flash layer,
// the background scrubber, and the fault drill enabled: live traffic
// under injected bit flips must keep serving without a 5xx while the
// /metrics flash families show the drill landing (corrupt extents
// found and dropped) and the scrub patrol making progress.
func TestDaemonFlashDrillAndScrub(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real daemon")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin,
		"-addr", "127.0.0.1:0",
		"-photos", "2000",
		"-bytes", "2000000",
		"-flash-segment-size", "4096",
		"-flash-overprovision", "1.25",
		"-flash-scrub-interval", "2ms",
		"-flash-fault-flip-every", "40",
	)
	addr := d.waitLog(t, servingRe, 60*time.Second)
	c := server.NewClient("http://"+addr, 2)
	c.SetRetry(server.RetryConfig{MaxAttempts: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx, 0); err != nil {
		t.Fatalf("daemon never became ready: %v\nlog:\n%s", err, d.Log())
	}

	// Admit a working set (flips land on ~1/40 of the programs), then
	// re-read it so flipped extents are discovered and degraded to
	// misses; the scrubber catches whatever the reads do not.
	const keys = 800
	for pass := 0; pass < 2; pass++ {
		for key := uint64(0); key < keys; key++ {
			if _, err := c.Lookup(key, 1024, nil); err != nil {
				t.Fatalf("pass %d key %d under drill: %v", pass, key, err)
			}
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Sample("ota_flash_waf", -1); !ok {
			t.Fatal("/metrics has no flash families with -flash-segment-size set")
		}
		corrupt := st.Cumulative.FlashCorruptExtents
		scrubbed := st.Value("ota_flash_scrubbed_segments_total", -1)
		if corrupt > 0 && scrubbed > 0 {
			if st.Value("ota_flash_exhausted", -1) != 0 || st.Value("ota_ready", -1) != 1 {
				t.Fatalf("drill flips must not consume spares or readiness: exhausted=%v ready=%v",
					st.Value("ota_flash_exhausted", -1), st.Value("ota_ready", -1))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drill never surfaced on /metrics: %d corrupt extents, %v scrubbed segments\nlog:\n%s",
				corrupt, scrubbed, d.Log())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
