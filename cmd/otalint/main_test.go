package main_test

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the otalint binary into a scratch dir and returns
// its path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "otalint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building otalint: %v\n%s", err, out)
	}
	return bin
}

func runTool(t *testing.T, bin, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running otalint: %v\n%s", err, out.String())
	}
	return out.String(), code
}

// TestCleanTree runs the suite over the real module and demands a clean
// bill: zero findings, zero stale allow-directives. Any drift between
// the code and the analyzers fails here before it fails in CI.
func TestCleanTree(t *testing.T) {
	bin := buildTool(t)
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	out, code := runTool(t, bin, root, "./...")
	if code != 0 {
		t.Fatalf("otalint ./... on the real tree exited %d, want 0:\n%s", code, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Fatalf("otalint on the real tree produced output:\n%s", out)
	}
}

// TestBadModule runs the suite over the seeded-violation fixture module
// and demands it catches everything planted there.
func TestBadModule(t *testing.T) {
	bin := buildTool(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	out, code := runTool(t, bin, dir, "./...")
	if code != 1 {
		t.Fatalf("otalint on badmod exited %d, want 1:\n%s", code, out)
	}
	for _, analyzer := range []string{
		"[detclock]", "[lockscope]",
		"[errsink]", "[lockorder]",
	} {
		if !strings.Contains(out, analyzer) {
			t.Errorf("badmod findings missing %s:\n%s", analyzer, out)
		}
	}
}

// TestGitHubAnnotations proves -github mirrors each finding as a
// ::error workflow command with a repo-relative path, so CI runs mark
// the offending line on the PR diff.
func TestGitHubAnnotations(t *testing.T) {
	bin := buildTool(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	out, code := runTool(t, bin, dir, "-github", "./...")
	if code != 1 {
		t.Fatalf("otalint -github on badmod exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "::error file=internal/engine/bad.go,line=") {
		t.Errorf("-github output missing ::error annotation with relative path:\n%s", out)
	}
}

// TestVetToolMode drives the binary through the real go vet driver —
// the unitchecker .cfg protocol — over the fixture module, proving the
// vettool integration end to end (config parsing, export-data imports,
// vetx output, nonzero exit on findings).
func TestVetToolMode(t *testing.T) {
	bin := buildTool(t)
	dir, err := filepath.Abs(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool on badmod succeeded, want findings:\n%s", out)
	}
	for _, analyzer := range []string{
		"[detclock]", "[lockscope]",
		"[errsink]", "[lockorder]",
	} {
		if !strings.Contains(string(out), analyzer) {
			t.Errorf("go vet -vettool output missing %s finding:\n%s", analyzer, out)
		}
	}
}

// TestVetProbes covers the two probe invocations the go vet driver
// makes before trusting a vettool.
func TestVetProbes(t *testing.T) {
	bin := buildTool(t)
	out, code := runTool(t, bin, ".", "-V=full")
	if code != 0 || !strings.HasPrefix(out, "otalint version ") {
		t.Errorf("-V=full: exit %d, output %q", code, out)
	}
	out, code = runTool(t, bin, ".", "-flags")
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("-flags: exit %d, output %q", code, out)
	}
}
