package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixturePkgs maps each check to its fixture package under testdata.
var fixturePkgs = map[string]string{
	"determinism":  "internal/lint/testdata/determinism/determinism",
	"rangesort":    "internal/lint/testdata/rangesort/rangesort",
	"counternames": "internal/lint/testdata/counternames/counternames",
	"errdiscard":   "internal/lint/testdata/errdiscard/store",
	"ctxflow":      "internal/lint/testdata/ctxflow/ctxflow",
	"goroleak":     "internal/lint/testdata/goroleak/goroleak",
	"lockscope":    "internal/lint/testdata/lockscope/lockscope",
	"digestpure":   "internal/lint/testdata/digestpure/digestpure",
	"atomicmix":    "internal/lint/testdata/atomicmix/atomicmix",
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, _, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestFixturesMatchGolden runs every check over its fixture package
// and compares the rendered findings against the committed golden
// file. Each fixture holds one violating file, one clean file and one
// suppressed file; only bad.go may appear in the golden.
func TestFixturesMatchGolden(t *testing.T) {
	root := repoRoot(t)
	for check, pkg := range fixturePkgs {
		t.Run(check, func(t *testing.T) {
			findings, err := Run(root, Options{Patterns: []string{pkg}})
			if err != nil {
				t.Fatal(err)
			}
			if len(findings) == 0 {
				t.Fatalf("expected findings in %s, got none", pkg)
			}
			for _, f := range findings {
				if f.Check != check {
					t.Errorf("unexpected check %q fired in %s fixture: %s:%d %s", f.Check, check, f.File, f.Line, f.Msg)
				}
				if filepath.Base(f.File) != "bad.go" {
					t.Errorf("finding outside bad.go: %s:%d [%s] %s", f.File, f.Line, f.Check, f.Msg)
				}
			}
			got := FormatText(findings)
			goldenPath := filepath.Join(root, "internal/lint/testdata", check, "expected.txt")
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("findings differ from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestSelfCheck is the gate behind scripts/check.sh: opmlint over the
// repo itself must report nothing — every legitimate exception
// carries an auditable //opmlint:allow annotation.
func TestSelfCheck(t *testing.T) {
	findings, err := Run(repoRoot(t), Options{Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("opmlint ./... on this repo must be clean, got %d findings:\n%s",
			len(findings), FormatText(findings))
	}
}

// TestCheckFilter exercises -checks: only the named check runs.
func TestCheckFilter(t *testing.T) {
	root := repoRoot(t)
	checks, err := CheckByName("determinism")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(root, Options{
		Patterns: []string{fixturePkgs["errdiscard"]},
		Checks:   checks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("determinism check should not fire on the errdiscard fixture:\n%s", FormatText(findings))
	}
	if _, err := CheckByName("nosuchcheck"); err == nil {
		t.Error("CheckByName accepted an unknown check")
	}
}

// scratchModule writes a throwaway module so directive edge cases can
// be exercised without polluting the repo's own tree.
func scratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.22\n"
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDirectiveScopes covers the three suppression placements: same
// line, line above, and enclosing declaration's doc comment.
func TestDirectiveScopes(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"clock/clock.go": `package clock

import "time"

// SameLine suppresses on the offending line.
func SameLine() int64 {
	return time.Now().UnixNano() //opmlint:allow determinism — test: same-line scope
}

// LineAbove suppresses from the line directly above.
func LineAbove() int64 {
	//opmlint:allow determinism — test: line-above scope
	return time.Now().UnixNano()
}

// DocScope suppresses everything in the declaration.
//
//opmlint:allow determinism — test: declaration-doc scope
func DocScope() int64 {
	a := time.Now().UnixNano()
	b := time.Now().UnixNano()
	return a + b
}
`,
	})
	findings, err := Run(dir, Options{Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("all clock reads are annotated, yet got:\n%s", FormatText(findings))
	}
}

// TestDirectiveAudit: malformed, unknown-check and unused directives
// are themselves findings, so a stale annotation cannot quietly
// disable a rule.
func TestDirectiveAudit(t *testing.T) {
	dir := scratchModule(t, map[string]string{
		"clock/clock.go": `package clock

import "time"

// NoReason has a directive without a reason: malformed.
func NoReason() int64 {
	return time.Now().UnixNano() //opmlint:allow determinism
}

// UnknownCheck names a check that does not exist.
func UnknownCheck() int64 {
	return time.Now().UnixNano() //opmlint:allow nosuchcheck — not a check
}

// Unused suppresses nothing.
func Unused() int {
	//opmlint:allow determinism — nothing to suppress here
	return 42
}
`,
	})
	findings, err := Run(dir, Options{Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	var wantSubstrings = []string{
		"missing reason",                // NoReason directive
		"unknown check \"nosuchcheck\"", // UnknownCheck directive
		"unused //opmlint:allow",        // Unused directive
		"wall-clock read time.Now",      // NoReason's finding survives (×2 with UnknownCheck's)
	}
	text := FormatText(findings)
	for _, want := range wantSubstrings {
		if !strings.Contains(text, want) {
			t.Errorf("findings missing %q:\n%s", want, text)
		}
	}
	// The two malformed directives must not suppress their lines.
	clockReads := strings.Count(text, "wall-clock read time.Now")
	if clockReads != 2 {
		t.Errorf("want 2 surviving clock findings, got %d:\n%s", clockReads, text)
	}
}

// TestJSONDeterministic: the -json rendering is stable and always an
// array, for scripts/lint-diff.sh baselines.
func TestJSONDeterministic(t *testing.T) {
	root := repoRoot(t)
	var outs [2]string
	for i := range outs {
		findings, err := Run(root, Options{Patterns: []string{fixturePkgs["rangesort"]}})
		if err != nil {
			t.Fatal(err)
		}
		s, err := FormatJSON(findings)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = s
	}
	if outs[0] != outs[1] {
		t.Errorf("JSON output differs between identical runs:\n%s\nvs\n%s", outs[0], outs[1])
	}
	empty, err := FormatJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(empty) != "[]" {
		t.Errorf("empty findings must render as [], got %q", empty)
	}
}
