// Package apiguard holds the API-shape check the exporting packages'
// tests share.
package apiguard

import (
	"reflect"
	"strings"
)

// ContextTwins lists every X for which t has both a method XContext and a
// method X: an operation has one spelling, and it takes a context first.
func ContextTwins(t reflect.Type) []string {
	var twins []string
	for i := 0; i < t.NumMethod(); i++ {
		x, ok := strings.CutSuffix(t.Method(i).Name, "Context")
		if _, has := t.MethodByName(x); ok && has {
			twins = append(twins, x)
		}
	}
	return twins
}
