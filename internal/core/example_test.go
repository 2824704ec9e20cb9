package core_test

import (
	"fmt"

	"repro/internal/astypes"
	"repro/internal/core"
)

// The basic mechanism: two entitled origins announce the same list; a
// hijacker's bare announcement conflicts via the implicit-list rule.
func ExampleChecker_Check() {
	prefix := astypes.MustPrefix(0x83b30000, 16) // 131.179.0.0/16
	valid := core.NewList(4, 226)
	checker := core.NewChecker()

	// Both legitimate origins attach the identical MOAS list.
	for _, origin := range []astypes.ASN{4, 226} {
		verdict, _ := checker.Check(core.Announcement{
			Prefix:      prefix,
			Path:        astypes.NewSeqPath(701, origin),
			Communities: valid.Communities(),
		})
		fmt.Println("origin", origin, "->", verdict)
	}

	// The hijacker announces without a list: implicitly {52}, which is
	// inconsistent with {4, 226}.
	verdict, conflict := checker.Check(core.Announcement{
		Prefix: prefix,
		Path:   astypes.NewSeqPath(1239, 52),
	})
	fmt.Println("origin 52 ->", verdict)
	fmt.Println(conflict.Error())
	// Output:
	// origin 4 -> consistent
	// origin 226 -> consistent
	// origin 52 -> conflict
	// MOAS conflict for 131.179.0.0/16: origin 52 announced list {52}, expected {4, 226} (learned from AS 0)
}

// MOAS lists are sets: order never matters, membership does, and ==
// compares them as sets.
func ExampleList() {
	a := core.NewList(4, 226)
	b := core.NewList(226, 4)
	c := a.WithOrigin(52) // a forged superset

	fmt.Println(a == b)
	fmt.Println(a == c)
	fmt.Println(c)
	// Output:
	// true
	// false
	// {4, 52, 226}
}

// The community encoding of §4.2: one (ASN : MLVal) value per origin.
func ExampleList_Communities() {
	list := core.NewList(4, 226)
	for _, c := range list.Communities() {
		fmt.Println(c)
	}
	back, has := core.FromCommunities(list.Communities())
	fmt.Println(has, back)
	// Output:
	// 4:65502
	// 226:65502
	// true {4, 226}
}

// A route without any MOAS list is treated as entitling only its own
// origin (§4.2 footnote 3).
func ExampleEffectiveList() {
	path := astypes.NewSeqPath(701, 1239, 4)
	list, _ := core.EffectiveList(nil, path)
	fmt.Println(list)
	// Output:
	// {4}
}
