package faultinject

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestAfterAndTimes(t *testing.T) {
	defer Reset()
	Set("t.at", Failpoint{Kind: KindError, Msg: "boom", After: 2, Times: 2})
	var fired []int
	for i := 0; i < 10; i++ {
		if err := Eval("t.at"); err != nil {
			fired = append(fired, i)
			if !strings.Contains(err.Error(), "t.at: boom") {
				t.Errorf("injected error %q should name the failpoint and its message", err)
			}
		}
	}
	if !reflect.DeepEqual(fired, []int{2, 3}) {
		t.Errorf("After=2 Times=2 over 10 hits fired on hits %v, want [2 3]", fired)
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

// TestResetDisarms: a name nobody set never fires, even while another
// failpoint is armed, and Reset disarms everything.
func TestResetDisarms(t *testing.T) {
	defer Reset()
	Set("t.armed", Failpoint{Kind: KindError})
	if err := Eval("t.other"); err != nil {
		t.Errorf("unset failpoint fired: %v", err)
	}
	Reset()
	if err := Eval("t.armed"); err != nil {
		t.Errorf("failpoint fired after Reset: %v", err)
	}
}
