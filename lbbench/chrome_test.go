package main

import (
	"strings"
	"testing"
)

func TestValidateChrome(t *testing.T) {
	good := `{"displayTimeUnit":"ms","traceEvents":[
{"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"node0"}},
{"ph":"B","pid":0,"tid":1,"ts":1,"name":"task"},
{"ph":"X","pid":0,"tid":2,"ts":1,"dur":3,"name":"x"},
{"ph":"b","pid":0,"tid":3,"ts":2,"cat":"msg","id":"7","name":"send"},
{"ph":"E","pid":0,"tid":1,"ts":4},
{"ph":"e","pid":0,"tid":3,"ts":5,"cat":"msg","id":"7"},
{"ph":"C","pid":0,"tid":0,"ts":5,"name":"PE","args":{"v":1}}
]}`
	n, err := validateChrome(strings.NewReader(good))
	if err != nil || n != 7 {
		t.Fatalf("valid trace: %d events, %v", n, err)
	}
	for name, events := range map[string]string{
		"unknown phase":     `{"ph":"Q","pid":0,"tid":0,"ts":1}`,
		"ts goes back":      `{"ph":"i","pid":0,"tid":0,"ts":5},{"ph":"i","pid":0,"tid":0,"ts":4}`,
		"E without B":       `{"ph":"E","pid":0,"tid":0,"ts":1}`,
		"unclosed B":        `{"ph":"B","pid":0,"tid":0,"ts":1}`,
		"async e without b": `{"ph":"e","pid":0,"tid":0,"ts":1,"cat":"c","id":"1"}`,
		"unclosed async":    `{"ph":"b","pid":0,"tid":0,"ts":1,"cat":"c","id":"1"}`,
		"negative dur":      `{"ph":"X","pid":0,"tid":0,"ts":1,"dur":-1}`,
		"no events":         ``,
	} {
		if _, err := validateChrome(strings.NewReader(`{"traceEvents":[` + events + `]}`)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := validateChrome(strings.NewReader(`{"traceEvents":[{"ph":"B"`)); err == nil {
		t.Error("truncated trace accepted")
	}
}
