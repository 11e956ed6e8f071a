// B2B data-exchange scenario from the paper's introduction: a consortium
// of parts suppliers agrees on a public DTD that does NOT match any
// partner's internal schema. This example exports order information grouped
// by nation (not by supplier, the internal layout), demonstrating:
//   - explicit Skolem terms to control element grouping/fusion,
//   - a DTD agreed "by consortium" and validated before exchange,
//   - strategy comparison on the same view.
#include <iostream>
#include <sstream>

#include "silkroute/publisher.h"
#include "tpch/generator.h"
#include "xml/dtd.h"
#include "xml/reader.h"

using namespace silkroute;
using namespace silkroute::core;

namespace {

// Consortium DTD: markets, each with the nation's name, its suppliers, and
// for each supplier the parts on offer.
constexpr const char* kConsortiumDtd = R"(
<!ELEMENT catalog (market*)>
<!ELEMENT market (marketName, seller*)>
<!ELEMENT marketName (#PCDATA)>
<!ELEMENT seller (sellerName, offer*)>
<!ELEMENT sellerName (#PCDATA)>
<!ELEMENT offer (item, quantity)>
<!ELEMENT item (#PCDATA)>
<!ELEMENT quantity (#PCDATA)>
)";

// The mapping cannot be derived automatically (paper Sec. 2): element
// names (`market`, `seller`, `offer`) expose nothing of the internal
// schema, and grouping is by nation via explicit Skolem terms.
constexpr const char* kView = R"(
from Nation $n
construct
<market ID=M($n.nationkey)>
  <marketName>$n.name</marketName>
  { from Supplier $s
    where $s.nationkey = $n.nationkey
    construct
    <seller ID=SEL($n.nationkey, $s.suppkey)>
      <sellerName>$s.name</sellerName>
      { from PartSupp $ps, Part $p
        where $s.suppkey = $ps.suppkey, $ps.partkey = $p.partkey
        construct
        <offer ID=OFF($n.nationkey, $s.suppkey, $ps.partkey)>
          <item>$p.name</item>
          <quantity>$ps.availqty</quantity>
        </offer> }
    </seller> }
</market>
)";

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? std::atof(argv[1]) : 0.01;
  Database db;
  tpch::TpchConfig config;
  config.scale_factor = scale;
  if (!tpch::GenerateTpch(config, &db).ok()) return 1;

  Publisher publisher(&db);
  auto tree = publisher.BuildViewTree(kView);
  if (!tree.ok()) {
    std::cerr << tree.status() << "\n";
    return 1;
  }
  std::cout << "consortium view tree:\n" << tree->ToString() << "\n";

  auto dtd = xml::ParseDtd(kConsortiumDtd);
  if (!dtd.ok()) {
    std::cerr << dtd.status() << "\n";
    return 1;
  }

  for (PlanStrategy strategy :
       {PlanStrategy::kGreedy, PlanStrategy::kUnified,
        PlanStrategy::kFullyPartitioned}) {
    PublishOptions options;
    options.strategy = strategy;
    options.document_element = "catalog";
    std::ostringstream out;
    auto result = publisher.Publish(kView, options, &out);
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return 1;
    }
    auto doc = xml::ParseXml(out.str());
    if (!doc.ok()) {
      std::cerr << doc.status() << "\n";
      return 1;
    }
    Status valid = dtd->Validate(**doc);
    const char* name = strategy == PlanStrategy::kGreedy ? "greedy"
                       : strategy == PlanStrategy::kUnified
                           ? "unified"
                           : "fully partitioned";
    std::cout << name << ": " << result->metrics.num_streams
              << " stream(s), " << result->metrics.total_ms() << " ms, "
              << out.str().size() << " bytes, DTD "
              << (valid.ok() ? "valid" : valid.ToString().c_str()) << "\n";
  }

  // Show a fragment of the document.
  PublishOptions options;
  options.document_element = "catalog";
  options.pretty = true;
  std::ostringstream out;
  if (!publisher.Publish(kView, options, &out).ok()) return 1;
  std::cout << "\ndocument fragment:\n"
            << out.str().substr(0, 800) << "...\n";
  return 0;
}
