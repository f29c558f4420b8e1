package linttest_test

import (
	"go/ast"
	"strings"
	"testing"

	"otacache/internal/lint/analysis"
	"otacache/internal/lint/errsink"
	"otacache/internal/lint/linttest"
	"otacache/internal/lint/lockorder"
)

// marker flags every function named Bad — a deterministic finding for
// the harness to mis-match against.
var marker = &analysis.Analyzer{
	Name: "marker",
	Doc:  "reports every function named Bad",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "Bad" {
					pass.Reportf(fd.Pos(), "function Bad found")
				}
			}
		}
		return nil
	},
}

// TestMisplacedWant proves a want comment on the wrong line fails in
// both directions — the finding is unexpected, the want is unmatched —
// and the unmatched side names the real finding's position so the fix
// is in the failure message.
func TestMisplacedWant(t *testing.T) {
	problems, err := linttest.Check([]*analysis.Analyzer{marker}, "misplaced")
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 2 {
		t.Fatalf("want 2 problems, got %d: %v", len(problems), problems)
	}
	if !strings.Contains(problems[0], "unexpected finding: function Bad found") {
		t.Errorf("first problem should flag the unclaimed finding, got %q", problems[0])
	}
	if !strings.Contains(problems[1], "is the want comment mis-positioned?") ||
		!strings.Contains(problems[1], "misplaced.go:7") {
		t.Errorf("second problem should hint at the real finding's line, got %q", problems[1])
	}
}

// TestMandatoryReasons proves a reasonless //lint:allow is a finding
// for each of the two wave-2 analyzers when they run as a suite.
func TestMandatoryReasons(t *testing.T) {
	linttest.RunSuite(t, []*analysis.Analyzer{
		errsink.Analyzer,
		lockorder.Analyzer,
	}, "reasons")
}
