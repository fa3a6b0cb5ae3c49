// Measurement-campaign (de)serialization: binary sections + CSV export.
//
// A campaign is the expensive artifact of the offline pipeline (on a real
// testbed it is weeks of cluster time), so it must be storable and
// reloadable.  The binary form (io layer: versioned, little-endian,
// checksummed by the enclosing snapshot) is what core::PredictDdl persists
// inside its state snapshot; the CSV form is the lossless human-readable
// export for spreadsheets and ad-hoc analysis.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "io/binary.hpp"
#include "simulator/campaign.hpp"

namespace pddl::sim {

// Binary section payload: tag "PDMS", u32 version, u64 count, then per
// measurement the identity strings, the scalar columns, and the recorded
// cluster-feature vector.  Round-trips bit-exactly (doubles are stored as
// raw IEEE-754 bits, not via decimal text).
void save_measurements(io::BinaryWriter& w, const std::vector<Measurement>& ms);
std::vector<Measurement> load_measurements(io::BinaryReader& r);

void save_measurements_csv(std::ostream& os,
                           const std::vector<Measurement>& ms);
std::vector<Measurement> load_measurements_csv(std::istream& is);

void save_measurements_csv_file(const std::string& path,
                                const std::vector<Measurement>& ms);

}  // namespace pddl::sim
