package main

import (
	"bytes"
	"strings"
	"testing"

	"nshd/internal/experiments"
)

func tableIDs() map[string]bool {
	ids := make(map[string]bool)
	for _, e := range experimentTable {
		ids[e.id] = true
	}
	return ids
}

func TestExpandIDsStayInTable(t *testing.T) {
	have := tableIDs()
	if len(have) != len(experimentTable) {
		t.Fatalf("experimentTable repeats an id: %d rows, %d distinct", len(experimentTable), len(have))
	}
	for _, e := range experimentTable {
		if e.group != "analytic" && e.group != "trained" {
			t.Errorf("%s: group %q is neither analytic nor trained", e.id, e.group)
		}
	}
	for _, spec := range []string{"all", "analytic", "trained"} {
		ids := expandIDs(spec)
		if len(ids) == 0 {
			t.Errorf("expandIDs(%q) is empty", spec)
		}
		for _, id := range ids {
			if !have[id] {
				t.Errorf("expandIDs(%q) yields %q, which experimentTable does not have", spec, id)
			}
		}
	}
	if got := len(expandIDs("all")); got != len(experimentTable) {
		t.Errorf("-exp all runs %d of %d experiments", got, len(experimentTable))
	}
	got := expandIDs(" fig7, analytic ,,nope")
	want := append(append([]string{"fig7"}, groupIDs("analytic")...), "nope")
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("expandIDs mixes ids and groups as %v, want %v", got, want)
	}
}

func TestUnknownExperimentListsTheTable(t *testing.T) {
	err := runOne(experiments.NewSession(experiments.Quick()), "nope", &options{})
	if err == nil {
		t.Fatal("runOne accepted an id the table does not have")
	}
	msg := err.Error()
	open, close := strings.Index(msg, "(have: "), strings.LastIndex(msg, ")")
	if open < 0 || close < open {
		t.Fatalf("error %q has no (have: …) list", msg)
	}
	listed := strings.Fields(msg[open+len("(have: ") : close])
	if len(listed) != len(experimentTable) {
		t.Fatalf("error lists %d ids, the table has %d: %q", len(listed), len(experimentTable), msg)
	}
	for i, e := range experimentTable {
		if listed[i] != e.id {
			t.Errorf("error lists %q at %d, the table has %q", listed[i], i, e.id)
		}
	}
}

func TestAnalyticExperimentRendersEndToEnd(t *testing.T) {
	var out bytes.Buffer
	if err := runOne(experiments.NewSession(experiments.Quick()), "table1", &options{out: &out}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== table1:", "LUT", "DSP"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table1 output lacks %q:\n%s", want, out.String())
		}
	}
}
