package grid

// Hooks for the tests in package grid_test, which can import scengen (a
// test in package grid cannot: scengen imports grid).

type ScenarioDoc = scenarioDoc

var (
	DecodeCanonical = decodeCanonical
	AppendCanonical = appendCanonical
)
