// Package htmlgen synthesizes task-interface HTML for the marketplace
// simulator. The paper's dataset carries one sample HTML page per batch;
// requesters' design decisions (#words, #text-boxes, #examples, #images,
// question style) are all visible in that markup. This generator emits real
// HTML whose extracted features (internal/htmlfeat) match a TaskType's
// DesignParams exactly, so the Section 4 analyses run against markup the
// same way the authors' did.
//
// Pages for the same task type are identical across batches but for the
// batch comment, which is what lets the Section 3.3 clustering recover
// distinct tasks from batch HTML.
package htmlgen

import (
	"fmt"
	"strings"

	"crowdscope/internal/model"
)

// vocabulary is the deterministic filler lexicon. Instruction text is
// synthesized from it with a per-task-type phase so different tasks have
// different (but stable) wording.
var vocabulary = []string{
	"please", "review", "the", "following", "item", "carefully", "before",
	"submitting", "your", "answer", "read", "each", "question", "and",
	"select", "option", "that", "best", "matches", "content", "if", "you",
	"are", "unsure", "choose", "closest", "match", "do", "not", "use",
	"external", "tools", "unless", "instructed", "work", "must", "be",
	"completed", "in", "single", "session", "provide", "accurate",
	"information", "only", "check", "spelling", "of", "any", "text",
	"entered", "into", "form", "fields", "results", "will", "reviewed",
	"for", "quality", "payment", "depends", "on", "accuracy", "responses",
	"open", "link", "a", "new", "tab", "when", "needed", "compare", "both",
	"records", "decide", "whether", "they", "refer", "to", "same", "entity",
	"rate", "relevance", "scale", "shown", "below", "describe", "what",
	"see", "image", "using", "complete", "sentences", "transcribe", "audio",
	"exactly", "as", "spoken", "including", "punctuation", "skip",
	"segments", "marked", "inaudible", "flag", "inappropriate", "spam",
	"offensive", "material", "with", "button", "search", "web", "business",
	"name", "address", "find", "official", "website", "url", "copy", "it",
	"field", "verify", "phone", "number", "country", "code", "label",
	"every", "object", "visible", "scene", "draw", "tight", "bounding",
	"box", "around", "person", "classify", "sentiment", "positive",
	"negative", "neutral", "mixed", "summarize", "main", "point", "article",
	"two", "sentences", "extract", "all", "dates", "mentioned", "document",
	"format", "them", "consistently", "answers", "saved", "automatically",
}

// Options configure page generation beyond the task's design parameters.
type Options struct {
	// Seed varies wording across task types; pages with equal Seed and
	// equal design render identically.
	Seed uint64
	// BatchTag, when non-empty, is embedded as a batch-specific comment —
	// the only thing in which pages of one task type differ across
	// batches.
	BatchTag string
}

// Render produces the sample task page for a task type.
func Render(tt model.TaskType, opt Options) string {
	var b strings.Builder
	b.Grow(4096 + 8*tt.Design.Words)
	g := &gen{b: &b, phase: opt.Seed}

	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&b, "<title>%s</title>\n", pageTitle(tt))
	b.WriteString("<meta charset=\"utf-8\">\n</head>\n<body>\n")
	if opt.BatchTag != "" {
		fmt.Fprintf(&b, "<!-- batch:%s -->\n", opt.BatchTag)
	}
	fmt.Fprintf(&b, "<h1>%s</h1>\n", pageTitle(tt))

	// Budget visible words so the extracted #words matches Design.Words.
	// Fixed page furniture contributes a known word count; instructions
	// absorb the remainder.
	furniture := g.countFixedWords(tt)
	instrWords := tt.Design.Words - furniture
	if instrWords < 0 {
		instrWords = 0
	}

	// Instructions.
	b.WriteString("<div class=\"instructions\" id=\"instructions\">\n")
	g.paragraphs(instrWords)
	b.WriteString("</div>\n")

	// Examples: the word "Example" wrapped in a tag of its own, as the
	// paper's #examples feature requires.
	for i := 0; i < tt.Design.Examples; i++ {
		fmt.Fprintf(&b, "<div class=\"example-block\"><b>Example %d</b>", i+1)
		b.WriteString("<p>")
		g.words(exampleWords)
		b.WriteString("</p></div>\n")
	}

	// Images.
	for i := 0; i < tt.Design.Images; i++ {
		fmt.Fprintf(&b, "<img src=\"https://cdn.example.net/assets/%d/%d.jpg\" alt=\"\">\n", opt.Seed%9973, i)
	}

	// The question area: item placeholder plus input fields determined by
	// the design.
	b.WriteString("<div class=\"task-item\" data-item=\"{{item_id}}\">\n")
	b.WriteString("<p>")
	g.words(questionWords)
	b.WriteString("</p>\n")

	// Operator-specific interface blocks: the markup vocabulary differs
	// by human operator just as real task templates do.
	radios, checks := choiceFields(tt)
	emitted := 0
	if tt.Operators.Has(model.OpSort) {
		b.WriteString("<ol class=\"sortable\">\n")
		for li := 0; li < sortListItems; li++ {
			b.WriteString("<li>")
			g.words(sortItemWords)
			b.WriteString("</li>\n")
		}
		b.WriteString("</ol>\n")
	}
	if tt.Operators.Has(model.OpLocalize) {
		b.WriteString("<div class=\"bbox-tool\" data-tool=\"rect\" data-target=\"{{item_id}}\"></div>\n")
	}
	if tt.Operators.Has(model.OpExternal) {
		b.WriteString("<a class=\"external-task\" href=\"https://survey.example.org/{{item_id}}\" target=\"_blank\">")
		g.words(externalLinkWords)
		b.WriteString("</a>\n")
	}
	if tt.Operators.Has(model.OpCount) && emitted < tt.Design.Fields-1 {
		b.WriteString("<input type=\"number\" name=\"count\" min=\"0\">\n")
		emitted++
	}
	for i := 0; i < radios; i++ {
		fmt.Fprintf(&b, "<label><input type=\"radio\" name=\"q\" value=\"opt%d\"> ", i)
		g.words(2)
		b.WriteString("</label>\n")
		emitted++
	}
	for i := 0; i < checks; i++ {
		fmt.Fprintf(&b, "<label><input type=\"checkbox\" name=\"c%d\"> ", i)
		g.words(2)
		b.WriteString("</label>\n")
		emitted++
	}
	for i := 0; i < tt.Design.TextBoxes; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&b, "<input type=\"text\" name=\"t%d\" placeholder=\"\">\n", i)
		} else {
			fmt.Fprintf(&b, "<textarea name=\"t%d\" rows=\"3\"></textarea>\n", i)
		}
		emitted++
	}
	// Pad remaining fields with selects so Fields matches the design.
	for emitted < tt.Design.Fields-1 { // -1: the submit button is a field
		fmt.Fprintf(&b, "<select name=\"s%d\"><option>-</option></select>\n", emitted)
		emitted++
	}
	b.WriteString("<button type=\"submit\">Submit</button>\n")
	b.WriteString("</div>\n</body>\n</html>\n")
	return b.String()
}

const (
	exampleWords      = 18
	questionWords     = 8
	sortListItems     = 3
	sortItemWords     = 2
	externalLinkWords = 4
)

// gen tracks deterministic word emission.
type gen struct {
	b     *strings.Builder
	phase uint64
}

func (g *gen) nextWord() string {
	w := vocabulary[g.phase%uint64(len(vocabulary))]
	// A multiplicative step with odd stride visits all vocabulary slots.
	g.phase = g.phase*6364136223846793005 + 1442695040888963407
	return w
}

// words writes n space-separated words.
func (g *gen) words(n int) {
	for i := 0; i < n; i++ {
		if i > 0 {
			g.b.WriteByte(' ')
		}
		g.b.WriteString(g.nextWord())
	}
}

// paragraphs writes n words split into <p> blocks of roughly 60 words.
func (g *gen) paragraphs(n int) {
	for n > 0 {
		chunk := 60
		if n < chunk {
			chunk = n
		}
		g.b.WriteString("<p>")
		g.words(chunk)
		g.b.WriteString("</p>\n")
		n -= chunk
	}
}

// countFixedWords computes the number of visible words the fixed furniture
// of the page contributes: title(h1), examples, question, option labels,
// the select placeholder dashes and submit button.
func (g *gen) countFixedWords(tt model.TaskType) int {
	n := len(strings.Fields(pageTitle(tt)))      // h1 only; <title> is head metadata but still text to our tokenizer
	n += len(strings.Fields(pageTitle(tt)))      // <title> text node
	n += tt.Design.Examples * (2 + exampleWords) // "Example N" + body
	n += questionWords
	if tt.Operators.Has(model.OpSort) {
		n += sortListItems * sortItemWords
	}
	if tt.Operators.Has(model.OpExternal) {
		n += externalLinkWords
	}
	radios, checks := choiceFields(tt)
	n += (radios + checks) * 2 // two-word labels
	selects := tt.Design.Fields - 1 - radios - checks - tt.Design.TextBoxes
	if tt.Operators.Has(model.OpCount) {
		selects-- // the number input occupies one field slot
	}
	if selects > 0 {
		n += selects // each select renders "-"
	}
	n++ // "Submit"
	return n
}

// choiceFields derives how many radio/checkbox fields the page shows from
// the design: all non-text fields beyond selects/submit (and the count
// operator's number input), split between radios and checkboxes.
func choiceFields(tt model.TaskType) (radios, checks int) {
	choice := tt.Design.Fields - 1 - tt.Design.TextBoxes
	if tt.Operators.Has(model.OpCount) {
		choice-- // the number input occupies one field slot
	}
	if choice < 0 {
		choice = 0
	}
	// Cap the padding selects at 20% of fields by giving most slots to
	// radio options.
	radios = choice * 4 / 5
	checks = choice - radios - choice/5
	if checks < 0 {
		checks = 0
	}
	return radios, checks
}

// pageTitle names the page after the task's primary goal and operator.
func pageTitle(tt model.TaskType) string {
	goal := "General Task"
	tt.Goals.Each(func(g model.Goal) {
		if goal == "General Task" {
			goal = g.LongName()
		}
	})
	op := ""
	tt.Operators.Each(func(o model.Operator) {
		if op == "" {
			op = o.LongName()
		}
	})
	if op == "" {
		return goal
	}
	return goal + " — " + op
}
