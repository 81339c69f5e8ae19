package nshd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameLiveCode keeps README.md and DESIGN.md from describing code
// that is gone (ROADMAP's "DESIGN.md rewritten once" item). In every inline
// code span and every line of a fenced block, outside DESIGN.md's
// "Decisions" table (which is about deleted code by definition), it checks
// that
//
//   - an internal/… or cmd/… path exists,
//   - nshd.<Exported> is declared in nshd.go,
//   - <pkg>.<Exported>, for a package under internal/, is declared in that
//     package's non-test files,
//   - a -flag written after nshd-<name> is one cmd/nshd-<name> defines,
//   - make <target> is on the Makefile's .PHONY line.
//
// ROADMAP renumbers its items at every re-anchor, so README.md, DESIGN.md
// and the Go files cite them by title: "ROADMAP", "ROADMAP item" or
// "ROADMAP items" followed by a number anywhere in them fails.
func TestDocsNameLiveCode(t *testing.T) {
	itemRE := regexp.MustCompile(`ROADMAP (items? )?\d`)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "README.md" || path == "DESIGN.md") {
			return err
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, l := range strings.Split(string(text), "\n") {
			if itemRE.MatchString(l) {
				t.Errorf("%s:%d: cites a ROADMAP item by number; cite it by title", path, i+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	facade := exportedNames(t, "nshd.go")
	internal := internalExports(t)
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(makefile)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	targets := map[string]bool{}
	for _, name := range strings.Fields(string(phony[1])) {
		targets[name] = true
	}
	flags := map[string]map[string]bool{} // per command, filled on first use

	var (
		pathRE   = regexp.MustCompile(`\b(?:internal|cmd)/[\w./-]*\w`)
		facadeRE = regexp.MustCompile(`\bnshd\.([A-Z]\w*)`)
		qualRE   = regexp.MustCompile(`\b([a-z]\w*)\.([A-Z]\w*)`)
		cmdRE    = regexp.MustCompile(`\bnshd-[a-z]+\b`)
		flagRE   = regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
		makeRE   = regexp.MustCompile(`\bmake ([a-z][\w-]*)`)
		flagDef  = regexp.MustCompile(`flag\.\w+\(\s*"([\w-]+)"`)
	)
	check := func(doc string, line int, snippet string) {
		for _, p := range pathRE.FindAllString(snippet, -1) {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s:%d: `%s` does not exist", doc, line, p)
			}
		}
		for _, m := range facadeRE.FindAllStringSubmatch(snippet, -1) {
			if !facade[m[1]] {
				t.Errorf("%s:%d: nshd.go does not declare `nshd.%s`", doc, line, m[1])
			}
		}
		for _, m := range qualRE.FindAllStringSubmatch(snippet, -1) {
			if names, ok := internal[m[1]]; ok && !names[m[2]] {
				t.Errorf("%s:%d: internal/%s declares no `%s.%s`", doc, line, m[1], m[1], m[2])
			}
		}
		for _, m := range makeRE.FindAllStringSubmatch(snippet, -1) {
			if !targets[m[1]] {
				t.Errorf("%s:%d: the Makefile has no `%s` target", doc, line, m[1])
			}
		}
		// Flags belong to the command named last before them.
		cmds := cmdRE.FindAllStringIndex(snippet, -1)
		for i, at := range cmds {
			name := snippet[at[0]:at[1]]
			if flags[name] == nil {
				flags[name] = map[string]bool{}
				sources, _ := filepath.Glob(filepath.Join("cmd", name, "*.go"))
				if len(sources) == 0 {
					t.Errorf("%s:%d: `%s` is not a command under cmd/", doc, line, name)
				}
				for _, src := range sources {
					text, err := os.ReadFile(src)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range flagDef.FindAllSubmatch(text, -1) {
						flags[name][string(m[1])] = true
					}
				}
			}
			end := len(snippet)
			if i+1 < len(cmds) {
				end = cmds[i+1][0]
			}
			for _, m := range flagRE.FindAllStringSubmatch(snippet[at[1]:end], -1) {
				if len(flags[name]) > 0 && !flags[name][m[1]] {
					t.Errorf("%s:%d: `%s` has no -%s flag", doc, line, name, m[1])
				}
			}
		}
	}

	// Code spans may wrap, so they are matched over the whole text between
	// two fences, not line by line.
	spanRE := regexp.MustCompile("`([^`]+)`")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		live := string(text)
		if a := strings.Index(live, "\n## Decisions\n"); a >= 0 {
			b := a + 1 + strings.Index(live[a+1:]+"\n## ", "\n## ")
			live = live[:a] + strings.Repeat("\n", strings.Count(live[a:b], "\n")) + live[b:]
		}
		line := 1
		for i, part := range strings.Split(live, "```") {
			if i%2 == 1 { // inside a fence
				for j, l := range strings.Split(part, "\n") {
					check(doc, line+j, l)
				}
			} else {
				for _, m := range spanRE.FindAllStringSubmatchIndex(part, -1) {
					check(doc, line+strings.Count(part[:m[2]], "\n"), strings.ReplaceAll(part[m[2]:m[3]], "\n", " "))
				}
			}
			line += strings.Count(part, "\n")
		}
	}
}

// TestDocsByteBudget makes document growth a failing test rather than a
// finding. The caps sit just above today's sizes; ROADMAP's "DESIGN.md
// rewritten once, down to ≤ 60 KB" is the target for DESIGN.md, and a change
// that shrinks a document lowers its cap.
func TestDocsByteBudget(t *testing.T) {
	for doc, limit := range map[string]int64{"DESIGN.md": 137_299, "README.md": 25_000} {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > limit {
			t.Errorf("%s is %d bytes, over its %d-byte budget", doc, fi.Size(), limit)
		}
	}
}

// TestCodeBudget is the code's counterpart of TestDocsByteBudget: it caps
// the lines of non-test Go outside benchmark/ and testdata/, and the lines of
// assembly, at their sizes when it was last lowered. A change that shrinks
// the code lowers the caps to the new sizes. A change that raises a cap names
// in CHANGES.md the measured win that pays for the lines.
func TestCodeBudget(t *testing.T) {
	var goLines, asmLines int
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		counter := &asmLines
		switch {
		case strings.HasSuffix(path, "_test.go"):
			return nil
		case strings.HasSuffix(path, ".go"):
			counter = &goLines
		case !strings.HasSuffix(path, ".s"):
			return nil
		}
		text, err := os.ReadFile(path)
		*counter += strings.Count(string(text), "\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what       string
		lines, cap int
	}{{"non-test Go", goLines, 18_085}, {"assembly", asmLines, 2_738}} {
		if c.lines > c.cap {
			t.Errorf("%s is %d lines, over its %d-line budget", c.what, c.lines, c.cap)
		}
	}
}

// internalExports maps the name of every package under internal/ to the
// exported top-level names its non-test files declare.
func internalExports(t *testing.T) map[string]map[string]bool {
	pkgs := map[string]map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if pkgs[f.Name.Name] == nil {
			pkgs[f.Name.Name] = map[string]bool{}
		}
		addExported(pkgs[f.Name.Name], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// exportedNames lists the exported top-level names a Go file declares.
func exportedNames(t *testing.T, file string) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	addExported(names, f)
	return names
}

// addExported adds the exported top-level names f declares to names.
func addExported(names map[string]bool, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
}
