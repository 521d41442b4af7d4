//go:build faultinject

package faultinject

import (
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Failpoint
		bad  bool
	}{
		{in: "error", want: Failpoint{Kind: KindError}},
		{in: "error(boom)", want: Failpoint{Kind: KindError, Msg: "boom"}},
		{in: "panic(die)#2", want: Failpoint{Kind: KindPanic, Msg: "die", Times: 2}},
		{in: "delay(150ms)@3", want: Failpoint{Kind: KindDelay, Delay: 150 * time.Millisecond, After: 3}},
		{in: "error*0.5@2#3", want: Failpoint{Kind: KindError, P: 0.5, After: 2, Times: 3}},
		{in: "bogus", bad: true},
		{in: "shortwrite#1", bad: true},
		{in: "delay(xyz)", bad: true},
		{in: "error*2", bad: true},
		{in: "error@-1", bad: true},
		{in: "error(unterminated", bad: true},
	}
	for _, c := range cases {
		fp, err := ParseSpec(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseSpec(%q): want error, got %+v", c.in, fp)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if fp != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, fp, c.want)
		}
	}
}

func TestAfterAndTimes(t *testing.T) {
	defer Reset()
	Set("t.at", Failpoint{Kind: KindError, After: 2, Times: 2})
	var errs int
	for i := 0; i < 10; i++ {
		if Eval("t.at") != nil {
			errs++
		}
	}
	if errs != 2 {
		t.Errorf("After=2 Times=2 over 10 hits: fired %d, want 2", errs)
	}
	if Hits("t.at") != 10 || Fired("t.at") != 2 {
		t.Errorf("hits=%d fired=%d, want 10/2", Hits("t.at"), Fired("t.at"))
	}
}

func TestPanicAndDelayKinds(t *testing.T) {
	defer Reset()
	Set("t.panic", Failpoint{Kind: KindPanic, Msg: "kaboom"})
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), "kaboom") {
				t.Errorf("panic failpoint: recovered %v", r)
			}
		}()
		Eval("t.panic")
	}()

	Set("t.delay", Failpoint{Kind: KindDelay, Delay: 30 * time.Millisecond, Times: 1})
	start := time.Now()
	if err := Eval("t.delay"); err != nil {
		t.Errorf("delay failpoint returned error: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("delay failpoint slept only %s", d)
	}
}

func TestSetFromEnv(t *testing.T) {
	defer Reset()
	if err := SetFromEnv("a.b=error(x)#1; c.d=delay(10ms)"); err != nil {
		t.Fatal(err)
	}
	if Eval("a.b") == nil {
		t.Error("a.b should fire once")
	}
	if Eval("a.b") != nil {
		t.Error("a.b should be exhausted")
	}
	if err := SetFromEnv("oops"); err == nil {
		t.Error("malformed env spec should error")
	}
	Clear("c.d")
	if Eval("c.d") != nil {
		t.Error("cleared failpoint should be inert")
	}
}
