// Package reasons proves the allow-reason rule is armed for every
// wave-2 analyzer: a reasonless directive is itself a finding, for
// each of the two names.
package reasons

func directives() {
	_ = 0 //lint:allow errsink // want `allow-directive for errsink has no reason`
	_ = 2 //lint:allow lockorder // want `allow-directive for lockorder has no reason`
}
