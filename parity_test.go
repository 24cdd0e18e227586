package visasim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"visasim/internal/config"
	"visasim/internal/core"
	"visasim/internal/harness"
	"visasim/internal/pipeline"
	"visasim/internal/workload"
)

// parityBudget keeps the 110-cell matrix affordable (each cell simulates
// 75K instructions with the default warmup).
const parityBudget = 60_000

// parityCells spans every Table 3 mix under the four schemes whose issue
// stage differs (oldest-first, VISA, VISA with dynamic IQ allocation, DVM)
// and all three issue-queue organizations, plus a MEM-A and a MIX-A cell
// that cross-check the queue's bookkeeping every cycle. The skip-ahead
// disabling effect of per-cycle checking makes those two cells' pins
// distinct from their unchecked twins.
func parityCells() []harness.Cell {
	schemes := []core.Scheme{core.SchemeBase, core.SchemeVISA, core.SchemeVISAOpt2, core.SchemeDVM}
	orgs := []string{config.OrgUnifiedAGE, config.OrgSWQUE, config.OrgPartitioned}
	var cells []harness.Cell
	for _, mix := range workload.Mixes() {
		for _, s := range schemes {
			for _, org := range orgs {
				m := config.Default()
				m.IQOrg = org
				cfg := core.Config{
					Machine:         &m,
					Benchmarks:      mix.Benchmarks[:],
					Scheme:          s,
					Policy:          pipeline.PolicyICOUNT,
					MaxInstructions: parityBudget,
				}
				if s == core.SchemeDVM {
					cfg.DVMTarget = 0.04
				}
				cells = append(cells, harness.Cell{Key: fmt.Sprintf("%s/%v/%s", mix.Name, s, org), Cfg: cfg})
			}
		}
	}
	for _, mix := range workload.Mixes() {
		if mix.Name != "MEM-A" && mix.Name != "MIX-A" {
			continue
		}
		cells = append(cells, harness.Cell{Key: mix.Name + "/visa/unified-age/checked", Cfg: core.Config{
			Benchmarks:      mix.Benchmarks[:],
			Scheme:          core.SchemeVISA,
			Policy:          pipeline.PolicyICOUNT,
			MaxInstructions: parityBudget,
			InvariantEvery:  1,
		}})
	}
	return cells
}

// parityPins are SHA-256 digests of json.Marshal(core.Result) per cell,
// recorded before the issue stage parked store-blocked loads off the ready
// list. Any drift is a behaviour change in the issue path.
var parityPins = map[string]string{
	"CPU-A/base/partitioned":         "ce0c783d283279b60601ca72c8ba3ab45af44e3982dc397382d01e4e146e8c96",
	"CPU-A/base/swque":               "7a519a0bdca64cf2b52edc82609fce71ec65527b006106c7e32c9d1183784d03",
	"CPU-A/base/unified-age":         "ea7c4d165beb1ea72e34dfd09e84950347a8efc8cea3a7dc4eac0d537d616092",
	"CPU-A/dvm/partitioned":          "1bd9688554809372846b2c348e864e52ff2c268d5970880577adf2d8e56e2372",
	"CPU-A/dvm/swque":                "c26e877524e46b37793bcbed22c433507810464d68529646f9359495d1b072da",
	"CPU-A/dvm/unified-age":          "c26e877524e46b37793bcbed22c433507810464d68529646f9359495d1b072da",
	"CPU-A/visa+opt2/partitioned":    "6f0cc41e3f7f463cb5e1c9bb1099a58df46fded3da39fac505f627f4c41ac73c",
	"CPU-A/visa+opt2/swque":          "5eb91e04113ca8958cfbaa772bc18336d2f6ec1d7400adbfc1fc639f63e0d881",
	"CPU-A/visa+opt2/unified-age":    "a3b1f42065e1a7af7e27a2d094c6038794cd571cda161bc3765dbff12f6506d1",
	"CPU-A/visa/partitioned":         "01280a52609cd370f1a6db7322f034806183cc2a0a1fa621686afb77897db1d1",
	"CPU-A/visa/swque":               "6fdd70ff5244b66c1a9d077b73d5125f0975e94c4ea10b607e43ef50140b6e00",
	"CPU-A/visa/unified-age":         "8f90067332913d305e6cade36d8413d5e1b2161b0459fb707c7d8234d0c3aed0",
	"CPU-B/base/partitioned":         "fc1f8e3b3fdb26230d422366c2babe59d9adaf4c5362c3145f0cb19bb0ba27b2",
	"CPU-B/base/swque":               "47ec8aa51e560587db853ebd5481ab73d550c99b868fdff1d457f49db7f0f8c1",
	"CPU-B/base/unified-age":         "5774d5d581adaa61bfd62cda02ef55fc4b8a4047b92d3b843927f35e964a84b9",
	"CPU-B/dvm/partitioned":          "2d3d5906b2c1639d4ee171c5c0bd229d062bbf231dacaae93856a5ac68066fce",
	"CPU-B/dvm/swque":                "9d1d3ed62c43348352fef8012e8bdf8cec66ca183ea5e548ebd678c1487b214f",
	"CPU-B/dvm/unified-age":          "9d1d3ed62c43348352fef8012e8bdf8cec66ca183ea5e548ebd678c1487b214f",
	"CPU-B/visa+opt2/partitioned":    "08cac5eade249b9fe34cea7df72140c57e3a578ab37c67b8b025300328baceed",
	"CPU-B/visa+opt2/swque":          "42ed580e52bc854187071719a1b52a812fec392f4b7b9ef1ac610953a59b29dc",
	"CPU-B/visa+opt2/unified-age":    "379e57fa8575fd04504cabcee88769060fd68634c06432f41dc31d292dc58282",
	"CPU-B/visa/partitioned":         "52a7870c7f79fbc1e56a33e31810f1ae8103460ae59b78e00e2a481e3392eddd",
	"CPU-B/visa/swque":               "680005a1a2e4ab1de24ab1f0fcec817cfc428d3279f5a196a638f9aba8c7778b",
	"CPU-B/visa/unified-age":         "da41b9d63ac64674512c992865bda71b62dc88c423d0a458c2e9f809d077ca01",
	"CPU-C/base/partitioned":         "2e54e5fc4ab70c4524af3b2cbf0e9ff3f9d42c3172099a339868c3e8ff6c3b08",
	"CPU-C/base/swque":               "9f83513200380e4604af2a1573ca52c258f9a14b6eb03f6ace3d38b03d2be0d7",
	"CPU-C/base/unified-age":         "85f21b33d88cbb46d0fe7fa2b98b62b8b18677ee1f7d3ddd4e146c78179dc36a",
	"CPU-C/dvm/partitioned":          "4acf02da0b3f9c0d4a6971de47bd79346f771ce964d0c93dada8dd730d69ba76",
	"CPU-C/dvm/swque":                "9df07596bdd6a397cb33980e5596cca3352e42e28f50ef111cb1696b054d9172",
	"CPU-C/dvm/unified-age":          "9df07596bdd6a397cb33980e5596cca3352e42e28f50ef111cb1696b054d9172",
	"CPU-C/visa+opt2/partitioned":    "7d63656379e51650dfd9be47bf98e2b62988b1569a4d5084ddb5827d8fa5f7f2",
	"CPU-C/visa+opt2/swque":          "006e305c906b8319dd8356166b0080f3dfd29bea6a5f838dbd8622bb53871f94",
	"CPU-C/visa+opt2/unified-age":    "d96c71406350589049d6e8d873ce68059ab9dc485dc1bc81d87bed89feda970c",
	"CPU-C/visa/partitioned":         "304375c4d4792489de4c49fe19c3ec6e5508587f71788c4e2c971391c4df17b9",
	"CPU-C/visa/swque":               "0cc19b483637579129fb43b6d89d731a70390554a7fe9de32f3ee77b39ec3ff8",
	"CPU-C/visa/unified-age":         "1b8bad28159959ce5aa7ffaeb80206681d0170434666ebcf1da33e0efe37e0aa",
	"MEM-A/base/partitioned":         "6689dcc158aaae6cc88e7c96b2cb5758715f92a56fb38d3f28247258fd961623",
	"MEM-A/base/swque":               "a2e0d9595dd9d68183b38b39a699a6122b5b63d6b63900cf4dd26d45da78b02b",
	"MEM-A/base/unified-age":         "07904ce4951637f085280ca83560c3f33704f427bfac09d9922a6b11db387b2f",
	"MEM-A/dvm/partitioned":          "74320ee884f30efcb457efbd3efe129ae3f5a7b84debfa733567d26a58132010",
	"MEM-A/dvm/swque":                "330b984d34cc575e05548cf48e03da358653b7a3cdc35c5f81055dc35f9fed10",
	"MEM-A/dvm/unified-age":          "330b984d34cc575e05548cf48e03da358653b7a3cdc35c5f81055dc35f9fed10",
	"MEM-A/visa+opt2/partitioned":    "3ba57d452fdbc528f951ff7d977fbb9a3a66a84a107f99180088fe3394c5a534",
	"MEM-A/visa+opt2/swque":          "dd48c73eb77f0ac73f451b15af6cc12bba3ed7dc0bd6b77fa8669774bff18e0c",
	"MEM-A/visa+opt2/unified-age":    "1266494b4f5e04529f037368fbae5d55bf1b44bc9befca762dbd511b4768b3a2",
	"MEM-A/visa/partitioned":         "44aacea2288e9ede005869bd8fac0283f9b1727196a5e141926a566074bf4215",
	"MEM-A/visa/swque":               "9bc3d3e8b71413591238d08f8087b042010c38369f24e5a7471977e35d390302",
	"MEM-A/visa/unified-age":         "0859a3ceab65d5a5196e55481413a0cffef09e5019868c5bd921cef1bdf453b5",
	"MEM-A/visa/unified-age/checked": "e4143c7c4851869830e85a078ad1727a89f9fc8f60af988e0b075718712972b1",
	"MEM-B/base/partitioned":         "876279c829151f9572a9f7e92b740d68a7fab974ec8f102a4eabec7e603b9dac",
	"MEM-B/base/swque":               "a9e5daad1de6a0d93dc9654a020afd66bbd13eecf35bd3e01664f826b5c3446c",
	"MEM-B/base/unified-age":         "6b849534f90aa82dfaec860a988e566a1b88e2a8d6c546b7865d59ade3c29516",
	"MEM-B/dvm/partitioned":          "8bf9911517f12f08886001cf71f000376492e8065849a5433085b205f5c0062c",
	"MEM-B/dvm/swque":                "3a3b69b7880579021d3193eddc8a852d2676df8ca10122bfaa6f349f5433e26c",
	"MEM-B/dvm/unified-age":          "3a3b69b7880579021d3193eddc8a852d2676df8ca10122bfaa6f349f5433e26c",
	"MEM-B/visa+opt2/partitioned":    "776d85707eb20b7ff79d5e61a62b44d969b4768310eea72e63b004ced84cb790",
	"MEM-B/visa+opt2/swque":          "87c10be5b089d0fe38e7ebd3b49bdcc0b99a77a6a8eca34862ddd214e612f943",
	"MEM-B/visa+opt2/unified-age":    "a693418faeb4cec2d3c4c670f51b9a2713fbc002938c6396cd773a9e9cab8c0f",
	"MEM-B/visa/partitioned":         "8b4532c6c45dfe585964a66ca4f764f526fead1bf84c2dd2a8b4e165f80e6391",
	"MEM-B/visa/swque":               "15d95b54d9dc5963790db3f4e8da5528c3531e8c4d0561c46482a4b4efbb4bf0",
	"MEM-B/visa/unified-age":         "74c7edffc23c98f0ef2fb8974725e027e8875c259a9d97d91a2d74f72aee9f1e",
	"MEM-C/base/partitioned":         "1101022d69e5aa886d76852f798f6e6916d697dd92603e6a7b1f94ca3a2e3f34",
	"MEM-C/base/swque":               "fa7410d04a2041397f05bb118bfecbd905b598bbbe937231f4a273e848d67739",
	"MEM-C/base/unified-age":         "3b0c73c65a85d43f1edbde0b5365da170acc1da83904a5ddc24a6fec00e5a8cf",
	"MEM-C/dvm/partitioned":          "c856f052b18454f6a24a359138e9597773d7e7087d9f165b6cef455d73ad4967",
	"MEM-C/dvm/swque":                "9a9d4bf18221ef20207cc214ce368d35f66aae7e87c5ce6a26b62968529aebd7",
	"MEM-C/dvm/unified-age":          "9a9d4bf18221ef20207cc214ce368d35f66aae7e87c5ce6a26b62968529aebd7",
	"MEM-C/visa+opt2/partitioned":    "164a064516642b0dfc3f06bf2f4b3dc25d10baee7ad0db1fc3139b46125652ce",
	"MEM-C/visa+opt2/swque":          "d4b1fe5d2f44225c012fcfe053d0dfaa2bcd9e8c75e6de09f61ce5962fdbde0b",
	"MEM-C/visa+opt2/unified-age":    "13168bc36832a98393447369e4422513e7af3c118662e3341a6455adf9cc6b9b",
	"MEM-C/visa/partitioned":         "09a2659781aff1206053a596d1733f403e6101d7f05bd95cf604cef0dc7abcda",
	"MEM-C/visa/swque":               "503a5d379f145ed887f6458a6e3230d001692be927ebdb676c297d2ca7a5ae8a",
	"MEM-C/visa/unified-age":         "bd2cac8ec174e0747ca4f895d71d18347ef122edf47746fa3d358c799e120205",
	"MIX-A/base/partitioned":         "c0351c72b1cbb9ee73f6803ab84ed20e6a1b34db2230a6d5ea5981e66ffae77f",
	"MIX-A/base/swque":               "d52816c82cf4b1a5876b616b1426594c2723ad7eaf7d442fbdc6361f643e3d3c",
	"MIX-A/base/unified-age":         "06dd7f25985fd9ba29ab81183ed53e6c88c68fe08170d0d7c4dfbad4aa4693a2",
	"MIX-A/dvm/partitioned":          "f94a5f10d400fc8bbfd8936a1973349f04a36204a29a4caaacecb486cebcd0a4",
	"MIX-A/dvm/swque":                "901e5a08832f8ffba08d27e310d55de99e8d9c7b85c56611f783ecec16bcc0e9",
	"MIX-A/dvm/unified-age":          "901e5a08832f8ffba08d27e310d55de99e8d9c7b85c56611f783ecec16bcc0e9",
	"MIX-A/visa+opt2/partitioned":    "65a79aade2f0a6d0d3deb03465bc2c209cee8d02460e6eefd8da19dd980fe3e5",
	"MIX-A/visa+opt2/swque":          "932dba1fa1005600764295cd8a6e4af44897cce937b29bf5a25876ac0f7a3238",
	"MIX-A/visa+opt2/unified-age":    "11460d17fb532bca49038d6dffaffe6a67ce8f41b63146ccca14fb055092714e",
	"MIX-A/visa/partitioned":         "0b6bca3f3c57d377f1df2056bd6a94f713902b053819187debc750b2a7dd4839",
	"MIX-A/visa/swque":               "67698ba3b95924ed7f5c449331069211c05a1b132f50a6e5efb08622457ab69d",
	"MIX-A/visa/unified-age":         "bc29eadf57b9b62cab484c4b13e2086f93b13e69fabe68b3f0fe056074873224",
	"MIX-A/visa/unified-age/checked": "803ef92a1bd26db7ea072efe7c890f59ae82701ff590dcf9c5025044133c8936",
	"MIX-B/base/partitioned":         "9c63a017b686c93948cb25da1e29f3a3cdd9b264ce765c3951ed27b80c43c748",
	"MIX-B/base/swque":               "a2097f91666717a69555d9d7f83a7a6967d52704b057bfd3d10bd7a581e4d2e3",
	"MIX-B/base/unified-age":         "45adffdbb31e08d3896c6e4bc3e67347bf5af52d5a3fde7dddbf1c2ca2c510fb",
	"MIX-B/dvm/partitioned":          "ccea683a62a8235bcd2e48d207115ee268da5d66d822c942c5951e1ee9156711",
	"MIX-B/dvm/swque":                "ff7bbd3fc0d9d9fa7b41dd5110884bc6f4d002b29be7097ce046695a1a5e6f1c",
	"MIX-B/dvm/unified-age":          "ff7bbd3fc0d9d9fa7b41dd5110884bc6f4d002b29be7097ce046695a1a5e6f1c",
	"MIX-B/visa+opt2/partitioned":    "9e95c0aafe719ff1cbc08b449943cfd5305d172733efd198b765170dbaf9f2cf",
	"MIX-B/visa+opt2/swque":          "c39e525592a2741ada3f06425e1974d5609964acc6b78e14e2d46273705198a8",
	"MIX-B/visa+opt2/unified-age":    "c3707c3d23ef9538b015e436f52fffb907405a677b373a81f8f24e5908dcd49f",
	"MIX-B/visa/partitioned":         "26dde6f3c0d193484a249f0de78635a92f83442b5ceb8b22071cfe5948c6df17",
	"MIX-B/visa/swque":               "1b1913800917916fa3423447914efe36ba9a453519108e78484dd46cae4c8bfd",
	"MIX-B/visa/unified-age":         "2dfc5c93ed8b0efe85d08a87db182c43f7e629fffd284da58e65d6680e00b761",
	"MIX-C/base/partitioned":         "ccb94bbd0c822e120b300b026d14bcb3370cd1c29a24820050670f160cf9d36c",
	"MIX-C/base/swque":               "bf8980946d07e030ca05b21beb19e180b5e79f3f0067f0d5564043398e6480b9",
	"MIX-C/base/unified-age":         "66848ef27a6e2bcee00c3452c34800976c52f55f5730688ea5000daed6fd2248",
	"MIX-C/dvm/partitioned":          "cdd1f8b341340471dcb08d26283f504c24243564332bb90236f2d76ef2832bd7",
	"MIX-C/dvm/swque":                "42d9aff1809c6e67db363f0642e89eed880ed8f6410121705aae26b141fb5607",
	"MIX-C/dvm/unified-age":          "42d9aff1809c6e67db363f0642e89eed880ed8f6410121705aae26b141fb5607",
	"MIX-C/visa+opt2/partitioned":    "f3fe8192b3b7c12b3ceed7ffce9bc1eeef2a18db7b7a4194906393f3ab021d29",
	"MIX-C/visa+opt2/swque":          "c565d0a331b642f812e5b376aabc4cb33e902e18b3069d523bbd795eff0e6834",
	"MIX-C/visa+opt2/unified-age":    "114dfb2da7517d914c31e5b2db4a4453ce751e8ef22fd01542e8d24f604c1607",
	"MIX-C/visa/partitioned":         "eb21beaf93acfe76b4791566d4a519f1fc9ec232c3b224d044e138372d237e99",
	"MIX-C/visa/swque":               "02e929a688014d1b727549f847aaea37fbc4f81cd59fd5e84f0d7dc1d6fd6470",
	"MIX-C/visa/unified-age":         "e279cd7a9ed0aa21d8ef9fb82381e044b38c69e679254b32635e89b871dad7b4",
}

// TestPinnedResultParity pins every parity cell's full result: the issue
// stage's bookkeeping (ready list, parked loads, same-cycle re-offer of
// loads whose blocking store issued) is a pure performance structure and
// must reproduce the recorded results byte for byte.
func TestPinnedResultParity(t *testing.T) {
	if testing.Short() {
		t.Skip("110-cell parity matrix")
	}
	cells := parityCells()
	res, _, err := harness.RunStats(cells, harness.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var drift []string
	for _, c := range cells {
		blob, err := json.Marshal(res[c.Key])
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		got := hex.EncodeToString(sum[:])
		if want := parityPins[c.Key]; got != want {
			drift = append(drift, fmt.Sprintf("\t%q: %q,", c.Key, got))
		}
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		t.Fatalf("%d of %d cells drifted from their pinned digests:\n%s", len(drift), len(cells), strings.Join(drift, "\n"))
	}
}
