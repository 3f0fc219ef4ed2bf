#include <gtest/gtest.h>

#include <vector>

#include "chem/elements.h"
#include "chem/molecule.h"

namespace df::chem {
namespace {

using core::Rng;

TEST(Elements, SymbolRoundTrip) {
  for (int i = 0; i < kNumElements; ++i) {
    const Element e = static_cast<Element>(i);
    EXPECT_EQ(element_from_symbol(element_info(e).symbol), e);
  }
  EXPECT_THROW(element_from_symbol("Xx"), std::invalid_argument);
}

TEST(Elements, ChemicalSanity) {
  EXPECT_EQ(element_info(Element::C).max_valence, 4);
  EXPECT_EQ(element_info(Element::O).max_valence, 2);
  EXPECT_TRUE(element_info(Element::C).hydrophobic);
  EXPECT_TRUE(element_info(Element::N).hbond_acceptor);
  EXPECT_TRUE(element_info(Element::O).hbond_donor_heavy);
  EXPECT_GT(element_info(Element::I).vdw_radius, element_info(Element::F).vdw_radius);
}

TEST(Molecule, BondBookkeeping) {
  Molecule m;
  const int32_t a = m.add_atom(Element::C);
  const int32_t b = m.add_atom(Element::O);
  m.add_bond(a, b, 2);
  EXPECT_EQ(m.num_bonds(), 1u);
  EXPECT_EQ(m.degree(a), 1);
  EXPECT_EQ(m.bond_order_sum(a), 2);
  EXPECT_THROW(m.add_bond(a, a), std::invalid_argument);
  EXPECT_THROW(m.add_bond(0, 5), std::invalid_argument);
}

TEST(Molecule, MolecularWeightIncludesImplicitH) {
  Molecule m;
  const int32_t c = m.add_atom(Element::C);
  m.atoms()[static_cast<size_t>(c)].implicit_h = 4;  // methane
  EXPECT_NEAR(m.molecular_weight(), 16.04f, 0.05f);
}

TEST(Molecule, RingCountFromCyclomaticNumber) {
  Molecule m;  // cyclohexane-like ring of 6 carbons
  for (int i = 0; i < 6; ++i) m.add_atom(Element::C);
  for (int i = 0; i < 6; ++i) m.add_bond(i, (i + 1) % 6);
  EXPECT_EQ(m.num_rings(), 1);
  // add a fused ring
  m.add_atom(Element::C);
  m.add_atom(Element::C);
  m.add_bond(0, 6);
  m.add_bond(6, 7);
  m.add_bond(7, 3);
  EXPECT_EQ(m.num_rings(), 2);
}

TEST(Molecule, ConnectedComponentsAndSubset) {
  Molecule m;
  m.add_atom(Element::C);
  m.add_atom(Element::C);
  m.add_bond(0, 1);
  m.add_atom(Element::Cl);  // disconnected counter-ion
  auto comps = m.connected_components();
  ASSERT_EQ(comps.size(), 2u);
  Molecule main = m.subset(comps[0].size() >= comps[1].size() ? comps[0] : comps[1]);
  EXPECT_EQ(main.num_atoms(), 2u);
  EXPECT_EQ(main.num_bonds(), 1u);
}

TEST(Molecule, GeometryOps) {
  Molecule m;
  m.add_atom(Element::C, {1, 0, 0});
  m.add_atom(Element::C, {-1, 0, 0});
  const core::Vec3 c = m.centroid();
  EXPECT_FLOAT_EQ(c.x, 0.0f);
  m.translate({0, 2, 0});
  EXPECT_FLOAT_EQ(m.centroid().y, 2.0f);
  // rotate 180 deg about z through centroid swaps x signs
  m.rotate(m.centroid(), {0, 0, 1}, 3.14159265f);
  EXPECT_NEAR(m.atoms()[0].pos.x, -1.0f, 1e-4f);
}

TEST(Molecule, PoseRmsd) {
  Molecule a;
  a.add_atom(Element::C, {0, 0, 0});
  a.add_atom(Element::C, {1, 0, 0});
  Molecule b = a;
  b.translate({0, 3, 4});  // every atom moves 5 A
  EXPECT_NEAR(pose_rmsd(a, b), 5.0f, 1e-5f);
  Molecule c;
  c.add_atom(Element::C);
  EXPECT_THROW(pose_rmsd(a, c), std::invalid_argument);
}

TEST(Molecule, HasMetal) {
  Molecule m;
  m.add_atom(Element::C);
  EXPECT_FALSE(m.has_metal());
  m.add_atom(Element::Metal);
  EXPECT_TRUE(m.has_metal());
}

class GeneratorValence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorValence, NeverExceedsMaxValence) {
  Rng rng(GetParam());
  MoleculeGenConfig cfg;
  const Molecule m = generate_molecule(cfg, rng);
  EXPECT_GE(m.num_atoms(), static_cast<size_t>(cfg.min_heavy_atoms));
  for (size_t i = 0; i < m.num_atoms(); ++i) {
    const Atom& a = m.atoms()[i];
    EXPECT_LE(m.bond_order_sum(static_cast<int32_t>(i)),
              element_info(a.element).max_valence)
        << "atom " << i << " " << element_info(a.element).symbol;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorValence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(Generator, ConnectedWithoutSalts) {
  Rng rng(99);
  MoleculeGenConfig cfg;
  cfg.salt_probability = 0.0f;
  cfg.metal_probability = 0.0f;
  for (int i = 0; i < 10; ++i) {
    const Molecule m = generate_molecule(cfg, rng);
    EXPECT_EQ(m.connected_components().size(), 1u);
  }
}

TEST(Generator, SaltsAppearWhenRequested) {
  Rng rng(7);
  MoleculeGenConfig cfg;
  cfg.salt_probability = 1.0f;
  const Molecule m = generate_molecule(cfg, rng);
  EXPECT_GE(m.connected_components().size(), 2u);
}

TEST(Generator, DescriptorsNonDegenerate) {
  Rng rng(11);
  MoleculeGenConfig cfg;
  const Molecule m = generate_molecule(cfg, rng);
  EXPECT_GT(m.molecular_weight(), 50.0f);
  EXPECT_GE(m.num_hbond_acceptors(), 0);
  EXPECT_GE(m.num_rotatable_bonds(), 0);
  EXPECT_GE(m.tpsa_proxy(), 0.0f);
}

// ---- num_rotatable_bonds: one bridge-finding DFS ----------------------

/// The per-bond reference the DFS replaced: a bond is in a ring iff its
/// endpoints stay connected when every bond between them is removed.
bool bond_in_ring_reference(const Molecule& m, const Bond& bond) {
  std::vector<bool> seen(m.num_atoms(), false);
  std::vector<int32_t> stack{bond.a};
  seen[static_cast<size_t>(bond.a)] = true;
  while (!stack.empty()) {
    const int32_t v = stack.back();
    stack.pop_back();
    for (int32_t u : m.neighbors(v)) {
      if (v == bond.a && u == bond.b) continue;
      if (v == bond.b && u == bond.a) continue;
      if (!seen[static_cast<size_t>(u)]) {
        seen[static_cast<size_t>(u)] = true;
        if (u == bond.b) return true;
        stack.push_back(u);
      }
    }
  }
  return seen[static_cast<size_t>(bond.b)];
}

int rotatable_reference(const Molecule& m) {
  int n = 0;
  for (const Bond& b : m.bonds()) {
    if (b.order != 1) continue;
    if (m.degree(b.a) < 2 || m.degree(b.b) < 2) continue;
    if (bond_in_ring_reference(m, b)) continue;
    ++n;
  }
  return n;
}

Molecule chain(int n) {
  Molecule m;
  for (int i = 0; i < n; ++i) m.add_atom(Element::C);
  for (int i = 1; i < n; ++i) m.add_bond(i - 1, i);
  return m;
}

TEST(RotatableBonds, HandBuiltTopologies) {
  // Single atom and an isolated pair: nothing rotates.
  EXPECT_EQ(chain(1).num_rotatable_bonds(), 0);
  EXPECT_EQ(chain(2).num_rotatable_bonds(), 0);
  // Butane: only the central bond joins two non-terminal atoms.
  EXPECT_EQ(chain(4).num_rotatable_bonds(), 1);

  // Fused rings (decalin-like 6+6 sharing an edge) with a 3-atom tail:
  // ring bonds never rotate, the tail's inner bond does.
  Molecule fused = chain(10);
  fused.add_bond(9, 0);  // 10-ring
  fused.add_bond(0, 5);  // bridge across it: two fused 6-rings
  const int32_t t0 = fused.add_atom(Element::C);
  const int32_t t1 = fused.add_atom(Element::C);
  const int32_t t2 = fused.add_atom(Element::O);
  fused.add_bond(2, t0);
  fused.add_bond(t0, t1);
  fused.add_bond(t1, t2);
  EXPECT_EQ(fused.num_rotatable_bonds(), rotatable_reference(fused));
  EXPECT_EQ(fused.num_rotatable_bonds(), 2);

  // Spiro: two rings sharing one atom, joined to a chain by a single bond.
  Molecule spiro;
  for (int i = 0; i < 9; ++i) spiro.add_atom(Element::C);
  for (int i : {1, 2, 3}) spiro.add_bond(i - 1, i);
  spiro.add_bond(3, 0);  // ring A: 0-1-2-3
  spiro.add_bond(0, 4);
  spiro.add_bond(4, 5);
  spiro.add_bond(5, 6);
  spiro.add_bond(6, 0);  // ring B through the spiro atom 0
  spiro.add_bond(2, 7);
  spiro.add_bond(7, 8);
  EXPECT_EQ(spiro.num_rotatable_bonds(), rotatable_reference(spiro));
  EXPECT_EQ(spiro.num_rotatable_bonds(), 1);

  // Several components, and a double bond that never counts.
  Molecule parts = chain(5);
  const int32_t off = static_cast<int32_t>(parts.num_atoms());
  for (int i = 0; i < 4; ++i) parts.add_atom(Element::N);
  parts.add_bond(off, off + 1);
  parts.add_bond(off + 1, off + 2, 2);
  parts.add_bond(off + 2, off + 3);
  parts.add_atom(Element::Cl);  // lone counter-ion
  EXPECT_EQ(parts.num_rotatable_bonds(), rotatable_reference(parts));
  EXPECT_EQ(parts.num_rotatable_bonds(), 2);

  // Parallel bonds between one pair count as one edge, as in the reference.
  Molecule doubled = chain(4);
  doubled.add_bond(1, 2);
  EXPECT_EQ(doubled.num_rotatable_bonds(), rotatable_reference(doubled));
}

TEST(RotatableBonds, MatchPerBondSearchOnRandomMolecules) {
  Rng rng(23);
  for (int trial = 0; trial < 400; ++trial) {
    MoleculeGenConfig cfg;
    cfg.min_heavy_atoms = 1;
    cfg.max_heavy_atoms = 40;
    cfg.ring_probability = static_cast<float>(trial % 5) * 0.2f;  // 0 .. 0.8: up to fused/spiro
    cfg.salt_probability = 0.3f;  // extra components
    cfg.metal_probability = 0.2f;
    Molecule m = generate_molecule(cfg, rng);
    // Sometimes fuse in a second fragment by a random extra bond pair.
    if (trial % 3 == 0 && m.num_atoms() > 4) {
      const Molecule other = generate_molecule(cfg, rng);
      const int32_t base = static_cast<int32_t>(m.num_atoms());
      for (const Atom& a : other.atoms()) m.add_atom(a.element);
      for (const Bond& b : other.bonds()) m.add_bond(base + b.a, base + b.b, b.order);
      if (trial % 2 == 0) m.add_bond(0, base);
    }
    ASSERT_EQ(m.num_rotatable_bonds(), rotatable_reference(m)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace df::chem
