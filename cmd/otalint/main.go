// Command otalint runs the repo's analyzer suite (see internal/lint).
//
// Two modes:
//
//	otalint [-github] [packages]
//	                           standalone; defaults to ./... in the
//	                           current module. Exits 1 if any finding
//	                           survives suppression, 2 on tool error.
//	                           -github additionally emits each finding
//	                           as a ::error workflow annotation so CI
//	                           runs mark the offending source line.
//
//	go vet -vettool=$(which otalint) ./...
//	                           vettool mode: the go command invokes the
//	                           binary once per package with -V=full,
//	                           -flags, and a JSON .cfg file, following
//	                           the x/tools unitchecker protocol.
//
// Suppression: a `//lint:allow <analyzer> <reason>` comment on the
// flagged line (or standing alone on the line above) silences one
// analyzer there. Reasons are mandatory, and stale directives are
// themselves findings.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	"otacache/internal/lint"
	"otacache/internal/lint/loader"
	"otacache/internal/lint/run"
)

func main() {
	args := os.Args[1:]

	// The go vet driver probes the tool before using it: -V=full asks
	// for a version string to mix into the build cache key, -flags asks
	// for the tool's flag schema (we define none).
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			fmt.Printf("otalint version %s\n", version())
			return
		case args[0] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(vetMode(args[0]))
		}
	}

	os.Exit(standalone(args))
}

// version identifies this build of the tool. The go command keys its
// vet-result cache on the -V=full output, so the string must change
// whenever the binary does: hash the executable itself (the same
// scheme x/tools' unitchecker uses). A constant here would pin stale
// diagnostics across rebuilds.
func version() string {
	exe, err := os.Executable()
	if err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			return fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "devel"
}

// standalone loads the given package patterns (default ./...) from the
// current directory's module and reports findings on stdout.
func standalone(args []string) int {
	github := false
	var patterns []string
	for _, a := range args {
		switch a {
		case "-github", "--github":
			github = true
		default:
			patterns = append(patterns, a)
		}
	}
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "otalint:", err)
		return 2
	}
	findings, err := run.Analyze(pkgs, lint.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "otalint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Println(f)
		if github {
			fmt.Println(annotation(f))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// annotation renders one finding as a GitHub Actions workflow command,
// which the runner turns into an inline annotation on the PR diff. The
// path must be repo-relative; the message's own newlines and the
// command's separators must be escaped per the workflow-command spec.
func annotation(f run.Finding) string {
	file := f.Pos.Filename
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	msg := fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)
	msg = strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(msg)
	return fmt.Sprintf("::error file=%s,line=%d,col=%d::%s", file, f.Pos.Line, f.Pos.Column, msg)
}

// vetConfig is the subset of the go vet driver's per-package JSON
// config that otalint consumes (the unitchecker protocol).
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetMode analyzes one package as directed by the go vet driver. The
// driver compiled export data for every dependency before invoking us,
// so type-checking resolves imports through cfg.PackageFile. Facts are
// not used by this suite, but the driver requires the VetxOutput file
// to exist on success, so an empty one is written.
func vetMode(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "otalint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "otalint: parsing %s: %v\n", cfgFile, err)
		return 2
	}

	writeVetx := func() int {
		if cfg.VetxOutput == "" {
			return 0
		}
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "otalint:", err)
			return 2
		}
		return 0
	}
	if cfg.VetxOnly {
		// Downstream packages only need our (empty) facts.
		return writeVetx()
	}
	// Tests are exempt, matching standalone mode: they are free to use
	// wall clocks and to block. go vet hands us test-augmented package
	// variants under the plain import path, so drop the _test.go files
	// rather than keying on the path; a pure test package (pkg_test, or
	// the generated test main) then has nothing left to analyze.
	var goFiles []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			goFiles = append(goFiles, f)
		}
	}
	if len(goFiles) == 0 {
		return writeVetx()
	}

	fset := token.NewFileSet()
	imp := loader.NewImporter(fset, func(path string) (string, bool) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		f, ok := cfg.PackageFile[path]
		return f, ok
	})
	pkg, err := loader.Check(fset, imp, cfg.ImportPath, goFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return writeVetx()
		}
		fmt.Fprintln(os.Stderr, "otalint:", err)
		return 2
	}
	findings, err := run.Analyze([]*loader.Package{pkg}, lint.Suite())
	if err != nil {
		fmt.Fprintln(os.Stderr, "otalint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return writeVetx()
}
