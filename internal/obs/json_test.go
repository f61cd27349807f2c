package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// jsonStringSeeds cover every branch of AppendJSONString: plain ASCII, the
// HTML-sensitive bytes, each control character's short and long escapes,
// DEL, quotes and backslashes, invalid and surrogate UTF-8, the two line
// separators and valid multi-byte runes.
var jsonStringSeeds = []string{
	"", "L1-D", "<a href=\"x\">&amp;</a>", "\x00\x01\x1f\x7f", "\b\f\n\r\t",
	"\"quoted\\path\"", "\xff\xfe", "\xed\xa0\x80", "a\u2028b\u2029c", "\u00e9\u2603\U0001f600", "\xe2\x80",
}

// FuzzJSONString holds the hand-written string appender to encoding/json,
// its reference, on arbitrary strings.
func FuzzJSONString(f *testing.F) {
	for _, s := range jsonStringSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	})
}
