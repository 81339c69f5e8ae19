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
// that is gone (ROADMAP item 8). In every inline code span and every line of
// a fenced block, outside DESIGN.md's "Decisions" table (which is about
// deleted code by definition), it checks that
//
//   - an internal/… or cmd/… path exists,
//   - nshd.<Exported> is declared in nshd.go,
//   - a -flag written after nshd-<name> is one cmd/nshd-<name> defines,
//   - make <target> is on the Makefile's .PHONY line.
func TestDocsNameLiveCode(t *testing.T) {
	facade := exportedNames(t, "nshd.go")
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
// finding. The caps sit just above today's sizes; ROADMAP item 7's target
// for DESIGN.md is 60 KB, and a change that shrinks a document lowers its cap.
func TestDocsByteBudget(t *testing.T) {
	for doc, limit := range map[string]int64{"DESIGN.md": 138_890, "README.md": 25_000} {
		fi, err := os.Stat(doc)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > limit {
			t.Errorf("%s is %d bytes, over its %d-byte budget", doc, fi.Size(), limit)
		}
	}
}

// exportedNames lists the exported top-level names a Go file declares.
func exportedNames(t *testing.T, file string) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
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
	return names
}
