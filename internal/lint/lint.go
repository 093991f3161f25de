// Package lint is opmlint's analysis engine: a standard-library-only
// static-analysis pass that mechanizes the repo's runtime contracts.
// Every published figure rests on properties that used to be enforced
// by convention — simulations are bit-deterministic, report bytes
// never leak map-iteration order, telemetry names are grep-able
// literals, and the store's journal never swallows an error. Each
// property has a check here, so a regression is a failed build
// instead of a flaky chaos suite three PRs later.
//
// Checks (see their files for the precise rules):
//
//	determinism   no wall-clock reads or global-source math/rand in
//	              library code — clock use is the obs layer's
//	              privilege, and every exception is annotated
//	rangesort     no map iteration whose order can reach output: a
//	              returned slice, an io.Writer, or an inline map
//	              literal consumed in range order
//	counternames  obs counter/gauge/histogram names are compile-time
//	              constants matching [a-z0-9_/]+
//	errdiscard    no discarded errors in the store, faultinject and
//	              serve packages (the journal's crash-safety layer
//	              and the daemon on its write path)
//
// Five more checks are interprocedural, built on a shared module-wide
// call graph (interface methods expanded over module implementations),
// blocking-classification fixpoints, digest-root reachability, and a
// per-function CFG (see callgraph.go and cfg.go):
//
//	ctxflow       functions accepting a context thread it into every
//	              blocking callee; context.Background()/TODO() banned
//	              outside cmd/ and tests
//	goroleak      every go statement in internal/ has a provable
//	              bounded exit (ctx.Done()/closed-channel select, a
//	              WaitGroup the spawner waits on, or a finite loop)
//	lockscope     no blocking operation (channel, file/journal I/O,
//	              HTTP, process wait) while a mutex is held
//	digestpure    everything reachable from the digest roots is free
//	              of clocks, unseeded rand and map iteration,
//	              transitively
//	atomicmix     fields accessed via sync/atomic are never accessed
//	              plainly elsewhere
//
// Suppression is explicit and auditable: a finding is silenced only by
// a //opmlint:allow <check> — <reason> comment on the offending line,
// the line above it, or in the enclosing declaration's doc comment.
// Directives without a reason, naming unknown checks, or suppressing
// nothing are themselves findings.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation, addressed by module-root-relative
// file path and position.
type Finding struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
	Hint  string `json:"hint,omitempty"`
}

// Check is one named rule over a type-checked package.
type Check struct {
	Name string
	Doc  string // one line: what the check guards
	// Applies filters packages; nil means every package.
	Applies func(w *World, p *Package) bool
	Run     func(pass *Pass)
}

// Pass is the per-(check, package) context handed to Check.Run.
type Pass struct {
	World *World
	Pkg   *Package
	Check *Check

	findings []Finding
}

// Reportf records a finding at pos.
func (pass *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	position := pass.World.Fset.Position(pos)
	rel := position.Filename
	if r, err := filepath.Rel(pass.World.Root, position.Filename); err == nil {
		rel = filepath.ToSlash(r)
	}
	pass.findings = append(pass.findings, Finding{
		File:  rel,
		Line:  position.Line,
		Col:   position.Column,
		Check: pass.Check.Name,
		Msg:   fmt.Sprintf(format, args...),
		Hint:  hint,
	})
}

// AllChecks returns every check in its canonical order.
func AllChecks() []*Check {
	return []*Check{
		determinismCheck,
		rangesortCheck,
		counternamesCheck,
		errdiscardCheck,
		ctxflowCheck,
		goroleakCheck,
		lockscopeCheck,
		digestpureCheck,
		atomicmixCheck,
	}
}

// CheckByName resolves a comma-separated check list ("" means all).
func CheckByName(names string) ([]*Check, error) {
	if names == "" {
		return AllChecks(), nil
	}
	byName := map[string]*Check{}
	for _, c := range AllChecks() {
		byName[c.Name] = c
	}
	var out []*Check
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// Options configures one Run.
type Options struct {
	// Patterns are package directories relative to the base directory
	// ("./..." walks the tree). Default: {"./..."}.
	Patterns []string
	// Checks to run. Default: AllChecks().
	Checks []*Check
	// BuildTags selects additionally-constrained files, like `go build
	// -tags`. The digestpure mutation suite loads the repo with
	// "opmlint_digest_mutation" to prove an injected clock is caught.
	BuildTags []string
	// NoCache forces a fresh parse+type-check instead of reusing the
	// process-wide world cache (benchmarks measure the cold path).
	NoCache bool
}

// Run loads the packages matched by opts.Patterns (relative to base),
// runs every check, applies //opmlint:allow suppressions, and returns
// the surviving findings sorted by file, line, column and check. A
// non-nil error means the tree could not be loaded or type-checked —
// findings are the normal way violations come back.
func Run(base string, opts Options) ([]Finding, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	checks := opts.Checks
	if len(checks) == 0 {
		checks = AllChecks()
	}
	var w *World
	var err error
	if opts.NoCache {
		w, err = LoadTags(base, patterns, opts.BuildTags)
	} else {
		w, err = loadCached(base, patterns, opts.BuildTags)
	}
	if err != nil {
		return nil, err
	}
	enabled := make(map[string]bool, len(checks))
	for _, c := range checks {
		enabled[c.Name] = true
	}
	var findings []Finding
	for _, p := range w.Requested() {
		dirs := collectDirectives(w, p)
		var pkgFindings []Finding
		for _, c := range checks {
			if c.Applies != nil && !c.Applies(w, p) {
				continue
			}
			pass := &Pass{World: w, Pkg: p, Check: c}
			c.Run(pass)
			pkgFindings = append(pkgFindings, pass.findings...)
		}
		findings = append(findings, applyDirectives(dirs, pkgFindings, enabled)...)
	}
	sortFindings(findings)
	return findings, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// FormatText renders findings one per line for humans (and for the
// golden files under testdata).
func FormatText(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Msg)
		if f.Hint != "" {
			fmt.Fprintf(&b, " (%s)", f.Hint)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatJSON renders findings as a deterministic JSON array (always
// an array, never null) for scripts/lint-diff.sh and other tooling.
func FormatJSON(fs []Finding) (string, error) {
	if fs == nil {
		fs = []Finding{}
	}
	data, err := json.MarshalIndent(fs, "", "  ")
	if err != nil {
		return "", err
	}
	return string(data) + "\n", nil
}
