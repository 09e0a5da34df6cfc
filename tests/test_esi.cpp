// ESI tests (paper §2.2): distributed CSR matrices with ghost gather, the
// preconditioner family, Krylov convergence across a parameterized
// (solver × preconditioner × team size) sweep, and the component/port layer
// including the portable interface path and framework-mediated composition.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <tuple>

#include "esi_sidl.hpp"

#include "cca/core/framework.hpp"
#include "cca/esi/components.hpp"
#include "cca/esi/csr_matrix.hpp"
#include "cca/esi/krylov.hpp"
#include "cca/esi/preconditioner.hpp"

using namespace cca;
using namespace cca::esi;

namespace {

/// Dense reference SpMV of the 2-D Poisson operator for cross-checking.
std::vector<double> densePoissonApply(std::size_t nx, std::size_t ny,
                                      const std::vector<double>& x,
                                      double alpha, double beta) {
  const std::size_t n = nx * ny;
  std::vector<double> y(n, 0.0);
  for (std::size_t row = 0; row < n; ++row) {
    const std::size_t i = row % nx;
    const std::size_t j = row / nx;
    double s = (alpha + 4.0 * beta) * x[row];
    if (i > 0) s -= beta * x[row - 1];
    if (i + 1 < nx) s -= beta * x[row + 1];
    if (j > 0) s -= beta * x[row - nx];
    if (j + 1 < ny) s -= beta * x[row + nx];
    y[row] = s;
  }
  return y;
}

}  // namespace

// ---------------------------------------------------------------------------
// CsrMatrix
// ---------------------------------------------------------------------------

TEST(CsrMatrixTest, ApplyMatchesDenseReferenceAcrossTeamSizes) {
  for (int p : {1, 2, 3, 4}) {
    rt::Comm::run(p, [](rt::Comm& c) {
      const std::size_t nx = 7, ny = 5;
      auto A = makePoisson2D(c, nx, ny, 0.5, 2.0);
      dist::DistVector<double> x(c, A.rowDistribution());
      dist::DistVector<double> y(c, A.rowDistribution());
      std::vector<double> xg(nx * ny);
      for (std::size_t i = 0; i < xg.size(); ++i)
        xg[i] = std::sin(0.7 * static_cast<double>(i)) + 0.1;
      for (std::size_t li = 0; li < x.localSize(); ++li)
        x.local()[li] = xg[x.globalIndexOf(li)];
      A.apply(x, y);
      auto yg = y.allgatherGlobal();
      auto ref = densePoissonApply(nx, ny, xg, 0.5, 2.0);
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(yg[i], ref[i], 1e-12) << "row " << i << " p=" << c.size();
    });
  }
}

TEST(CsrMatrixTest, DuplicateEntriesAccumulate) {
  rt::Comm::run(1, [](rt::Comm& c) {
    CsrMatrix A(c, dist::Distribution::block(3, 1));
    A.add(0, 0, 1.0);
    A.add(0, 0, 2.5);
    A.add(1, 1, 1.0);
    A.add(2, 2, 1.0);
    A.assemble();
    EXPECT_DOUBLE_EQ(A.getLocal(0, 0), 3.5);
    EXPECT_DOUBLE_EQ(A.getLocal(0, 1), 0.0);
    EXPECT_EQ(A.globalNonzeros(), 3u);
  });
}

TEST(CsrMatrixTest, UsageErrors) {
  rt::Comm::run(2, [](rt::Comm& c) {
    CsrMatrix A(c, dist::Distribution::block(4, 2));
    const std::size_t notMine = c.rank() == 0 ? 3 : 0;
    EXPECT_THROW(A.add(notMine, 0, 1.0), dist::DistError);
    EXPECT_THROW(A.add(0, 99, 1.0), dist::DistError);
    dist::DistVector<double> x(c, A.rowDistribution()), y(c, A.rowDistribution());
    EXPECT_THROW(A.apply(x, y), dist::DistError);  // before assemble
    for (std::size_t li = 0; li < A.localRows(); ++li) {
      const auto row = A.rowDistribution().globalIndexOf(c.rank(), li);
      A.add(row, row, 1.0);
    }
    A.assemble();
    EXPECT_THROW(A.assemble(), dist::DistError);
    EXPECT_THROW(A.add(0, 0, 1.0), dist::DistError);
    dist::DistVector<double> bad(c, dist::Distribution::cyclic(4, c.size()));
    EXPECT_THROW(A.apply(bad, y), dist::DistError);
  });
}

TEST(CsrMatrixTest, DiagonalExtraction) {
  rt::Comm::run(2, [](rt::Comm& c) {
    auto A = makePoisson2D(c, 4, 4, 1.0, 1.0);
    auto d = A.localDiagonal();
    for (double v : d) EXPECT_DOUBLE_EQ(v, 5.0);
  });
}

TEST(CsrMatrixTest, GhostCountMatchesPartitionBoundary) {
  rt::Comm::run(4, [](rt::Comm& c) {
    const std::size_t nx = 8, ny = 8;
    auto A = makePoisson2D(c, nx, ny);
    // Block rows over a row-major grid: interior ranks border two
    // neighbouring ranks (nx ghosts each side), edge ranks one.
    const std::size_t expected = (c.rank() == 0 || c.rank() == 3) ? nx : 2 * nx;
    EXPECT_EQ(A.ghostCount(), expected);
  });
}

// ---------------------------------------------------------------------------
// Preconditioners
// ---------------------------------------------------------------------------

// The kind is a std::string, not a const char*: gtest prints a char pointer
// with its address, and ctest names parameterized tests by the printed value,
// so a pointer parameter would give every build different test names.
class PrecondSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PrecondSweep, ApplyIsLinearAndNonTrivial) {
  const std::string kindStr = std::get<0>(GetParam());
  const int p = std::get<1>(GetParam());
  rt::Comm::run(p, [kindStr](rt::Comm& c) {
    auto A = makePoisson2D(c, 6, 6, 0.2, 1.0);
    auto M = makePreconditioner(kindStr);
    M->setUp(A);
    dist::DistVector<double> r(c, A.rowDistribution());
    dist::DistVector<double> z1(c, A.rowDistribution());
    dist::DistVector<double> z2(c, A.rowDistribution());
    for (std::size_t li = 0; li < r.localSize(); ++li)
      r.local()[li] = 1.0 + 0.3 * static_cast<double>(r.globalIndexOf(li) % 5);
    M->apply(r, z1);
    EXPECT_GT(z1.norm2(), 0.0);
    // Linearity: M(2r) = 2 M(r).
    r.scale(2.0);
    M->apply(r, z2);
    z2.axpy(-2.0, z1);
    EXPECT_NEAR(z2.norm2(), 0.0, 1e-12);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PrecondSweep,
    ::testing::Combine(::testing::Values(std::string("identity"),
                                         std::string("jacobi"),
                                         std::string("sor"),
                                         std::string("ilu0")),
                       ::testing::Values(1, 2, 4)));

TEST(Preconditioners, JacobiIsExactForDiagonalMatrix) {
  rt::Comm::run(2, [](rt::Comm& c) {
    CsrMatrix A(c, dist::Distribution::block(6, 2));
    for (std::size_t li = 0; li < A.localRows(); ++li) {
      const auto row = A.rowDistribution().globalIndexOf(c.rank(), li);
      A.add(row, row, static_cast<double>(row + 1));
    }
    A.assemble();
    JacobiPreconditioner M;
    M.setUp(A);
    dist::DistVector<double> r(c, A.rowDistribution());
    dist::DistVector<double> z(c, A.rowDistribution());
    r.fill(1.0);
    M.apply(r, z);
    for (std::size_t li = 0; li < z.localSize(); ++li)
      EXPECT_DOUBLE_EQ(z.local()[li],
                       1.0 / static_cast<double>(z.globalIndexOf(li) + 1));
  });
}

TEST(Preconditioners, Ilu0IsExactSolveOnSerialTridiagonal) {
  // ILU(0) of a tridiagonal matrix is a complete LU: apply == A^{-1}.
  rt::Comm::run(1, [](rt::Comm& c) {
    auto A = makeConvectionDiffusion1D(c, 12, 1.0, 0.4);
    Ilu0Preconditioner M;
    M.setUp(A);
    dist::DistVector<double> x(c, A.rowDistribution());
    dist::DistVector<double> b(c, A.rowDistribution());
    dist::DistVector<double> z(c, A.rowDistribution());
    for (std::size_t i = 0; i < x.localSize(); ++i)
      x.local()[i] = 0.5 + static_cast<double>(i % 3);
    A.apply(x, b);
    M.apply(b, z);
    z.axpy(-1.0, x);
    EXPECT_NEAR(z.norm2(), 0.0, 1e-10);
  });
}

TEST(Preconditioners, ZeroDiagonalRejected) {
  rt::Comm::run(1, [](rt::Comm& c) {
    CsrMatrix A(c, dist::Distribution::block(2, 1));
    A.add(0, 1, 1.0);
    A.add(1, 0, 1.0);
    A.assemble();
    JacobiPreconditioner j;
    EXPECT_THROW(j.setUp(A), dist::DistError);
    Ilu0Preconditioner ilu;
    EXPECT_THROW(ilu.setUp(A), dist::DistError);
  });
}

TEST(Preconditioners, FactoryNamesAndErrors) {
  EXPECT_EQ(makePreconditioner("sor")->name(), "sor");
  EXPECT_THROW(makePreconditioner("amg"), dist::DistError);
  EXPECT_THROW(SorPreconditioner(2.5), dist::DistError);
}

// ---------------------------------------------------------------------------
// Krylov solvers (substrate templates)
// ---------------------------------------------------------------------------

namespace {

struct SolveSetup {
  const char* algo;     // "cg" | "bicgstab" | "gmres"
  const char* precond;  // preconditioner kind
  int ranks;
};

// Printed value = ctest test name suffix; without this gtest dumps the
// struct's bytes, pointers included, which differ from run to run.
void PrintTo(const SolveSetup& s, std::ostream* os) {
  *os << s.algo << "+" << s.precond << "/" << s.ranks;
}

SolveReport runSolve(const SolveSetup& s, const CsrMatrix& A,
                     const dist::DistVector<double>& b,
                     dist::DistVector<double>& x) {
  auto M = makePreconditioner(s.precond);
  M->setUp(A);
  auto apply = [&](const dist::DistVector<double>& in,
                   dist::DistVector<double>& out) { A.apply(in, out); };
  auto prec = [&](const dist::DistVector<double>& in,
                  dist::DistVector<double>& out) { M->apply(in, out); };
  KrylovOptions opt;
  opt.rtol = 1e-10;
  opt.maxIterations = 2000;
  if (std::string(s.algo) == "cg") return cg(apply, prec, b, x, opt);
  if (std::string(s.algo) == "bicgstab") return bicgstab(apply, prec, b, x, opt);
  return gmres(apply, prec, b, x, opt);
}

}  // namespace

class KrylovSweep : public ::testing::TestWithParam<SolveSetup> {};

TEST_P(KrylovSweep, SolvesPoissonToTolerance) {
  const SolveSetup s = GetParam();
  rt::Comm::run(s.ranks, [&](rt::Comm& c) {
    const std::size_t nx = 12, ny = 12;
    auto A = makePoisson2D(c, nx, ny, 0.1, 1.0);
    dist::DistVector<double> xTrue(c, A.rowDistribution());
    dist::DistVector<double> b(c, A.rowDistribution());
    dist::DistVector<double> x(c, A.rowDistribution());
    for (std::size_t li = 0; li < xTrue.localSize(); ++li)
      xTrue.local()[li] =
          std::cos(0.31 * static_cast<double>(xTrue.globalIndexOf(li)));
    A.apply(xTrue, b);
    auto rep = runSolve(s, A, b, x);
    EXPECT_EQ(rep.status, SolveStatus::Converged)
        << s.algo << "+" << s.precond << ": " << rep.iterations
        << " its, |r|=" << rep.residualNorm;
    x.axpy(-1.0, xTrue);
    EXPECT_LT(x.norm2() / xTrue.norm2(), 1e-7);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KrylovSweep,
    ::testing::Values(SolveSetup{"cg", "identity", 1},
                      SolveSetup{"cg", "jacobi", 1},
                      SolveSetup{"cg", "sor", 2},
                      SolveSetup{"cg", "ilu0", 3},
                      SolveSetup{"bicgstab", "identity", 1},
                      SolveSetup{"bicgstab", "jacobi", 2},
                      SolveSetup{"bicgstab", "ilu0", 2},
                      SolveSetup{"gmres", "identity", 1},
                      SolveSetup{"gmres", "jacobi", 2},
                      SolveSetup{"gmres", "sor", 4},
                      SolveSetup{"gmres", "ilu0", 1}));

TEST(Krylov, NonsymmetricSystemSolvedByGmres) {
  rt::Comm::run(2, [](rt::Comm& c) {
    auto A = makeConvectionDiffusion1D(c, 64, 1.0, 1.5);
    dist::DistVector<double> xTrue(c, A.rowDistribution());
    dist::DistVector<double> b(c, A.rowDistribution());
    dist::DistVector<double> x(c, A.rowDistribution());
    xTrue.fill(1.0);
    A.apply(xTrue, b);
    KrylovOptions opt;
    opt.rtol = 1e-10;
    opt.maxIterations = 500;
    auto apply = [&](const dist::DistVector<double>& in,
                     dist::DistVector<double>& out) { A.apply(in, out); };
    auto ident = [](const dist::DistVector<double>& in,
                    dist::DistVector<double>& out) { out.assignFrom(in); };
    auto rep = gmres(apply, ident, b, x, opt);
    EXPECT_EQ(rep.status, SolveStatus::Converged);
    x.axpy(-1.0, xTrue);
    EXPECT_LT(x.norm2(), 1e-6);
  });
}

TEST(Krylov, PreconditioningReducesIterations) {
  rt::Comm::run(1, [](rt::Comm& c) {
    auto A = makePoisson2D(c, 16, 16);
    dist::DistVector<double> b(c, A.rowDistribution());
    b.fill(1.0);
    KrylovOptions opt;
    opt.rtol = 1e-8;
    opt.maxIterations = 2000;
    auto apply = [&](const dist::DistVector<double>& in,
                     dist::DistVector<double>& out) { A.apply(in, out); };

    dist::DistVector<double> x1(c, A.rowDistribution());
    auto ident = [](const dist::DistVector<double>& in,
                    dist::DistVector<double>& out) { out.assignFrom(in); };
    auto plain = cg(apply, ident, b, x1, opt);

    Ilu0Preconditioner M;
    M.setUp(A);
    dist::DistVector<double> x2(c, A.rowDistribution());
    auto prec = [&](const dist::DistVector<double>& in,
                    dist::DistVector<double>& out) { M.apply(in, out); };
    auto strong = cg(apply, prec, b, x2, opt);

    EXPECT_EQ(plain.status, SolveStatus::Converged);
    EXPECT_EQ(strong.status, SolveStatus::Converged);
    EXPECT_LT(strong.iterations, plain.iterations);
  });
}

TEST(Krylov, MaxIterationsReported) {
  rt::Comm::run(1, [](rt::Comm& c) {
    auto A = makePoisson2D(c, 20, 20);
    dist::DistVector<double> b(c, A.rowDistribution());
    dist::DistVector<double> x(c, A.rowDistribution());
    b.fill(1.0);
    KrylovOptions opt;
    opt.rtol = 1e-14;
    opt.maxIterations = 3;
    auto apply = [&](const dist::DistVector<double>& in,
                     dist::DistVector<double>& out) { A.apply(in, out); };
    auto ident = [](const dist::DistVector<double>& in,
                    dist::DistVector<double>& out) { out.assignFrom(in); };
    auto rep = cg(apply, ident, b, x, opt);
    EXPECT_EQ(rep.status, SolveStatus::MaxIterations);
    EXPECT_EQ(rep.iterations, 3);
  });
}

TEST(Krylov, ZeroRhsConvergesImmediately) {
  rt::Comm::run(1, [](rt::Comm& c) {
    auto A = makePoisson2D(c, 4, 4);
    dist::DistVector<double> b(c, A.rowDistribution());
    dist::DistVector<double> x(c, A.rowDistribution());
    auto apply = [&](const dist::DistVector<double>& in,
                     dist::DistVector<double>& out) { A.apply(in, out); };
    auto ident = [](const dist::DistVector<double>& in,
                    dist::DistVector<double>& out) { out.assignFrom(in); };
    auto rep = cg(apply, ident, b, x, KrylovOptions{});
    EXPECT_EQ(rep.status, SolveStatus::Converged);
    EXPECT_EQ(rep.iterations, 0);
  });
}

// ---------------------------------------------------------------------------
// Component / port layer
// ---------------------------------------------------------------------------

TEST(EsiPorts, DistVectorPortImplementsInterface) {
  rt::Comm::run(2, [](rt::Comm& c) {
    auto v = std::make_shared<comp::DistVectorPort>(
        c, dist::Distribution::block(10, c.size()));
    v->fill(3.0);
    EXPECT_EQ(v->globalSize(), 10);
    EXPECT_DOUBLE_EQ(v->norm2(), std::sqrt(90.0));
    auto w = std::dynamic_pointer_cast<comp::DistVectorPort>(v->clone());
    ASSERT_NE(w, nullptr);
    w->scale(2.0);
    EXPECT_DOUBLE_EQ(v->dot(w), 180.0);
    v->axpy(1.0, w);  // v = 9
    EXPECT_DOUBLE_EQ(v->norm2(), std::sqrt(810.0));
    auto vals = v->localValues();
    EXPECT_EQ(vals.size(), v->vec().localSize());
    vals.fill(1.0);
    v->setLocalValues(vals);
    EXPECT_DOUBLE_EQ(v->norm2(), std::sqrt(10.0));
    EXPECT_THROW(v->axpy(1.0, nullptr), cca::sidl::PreconditionException);
    EXPECT_THROW(v->setLocalValues(cca::sidl::Array<double>({99})),
                 cca::sidl::PreconditionException);
  });
}

TEST(EsiPorts, SolverPortFastAndPortablePathsAgree) {
  rt::Comm::run(2, [](rt::Comm& c) {
    auto A = std::make_shared<CsrMatrix>(makePoisson2D(c, 10, 10, 0.3, 1.0));
    auto opPort = std::make_shared<comp::CsrOperatorPort>(A);
    auto precond = std::make_shared<comp::PrecondPort>("jacobi");
    std::shared_ptr<::sidlx::esi::Operator> opIface = opPort;
    precond->setUp(opIface);

    auto b = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
    for (std::size_t li = 0; li < b->vec().localSize(); ++li)
      b->vec().local()[li] =
          std::sin(0.2 * static_cast<double>(b->vec().globalIndexOf(li)));

    auto solveWith = [&](bool portable) {
      comp::KrylovSolverPort solver(comp::KrylovSolverPort::Algo::Cg);
      solver.setForcePortablePath(portable);
      solver.setOperator(opPort);
      solver.setPreconditioner(precond);
      solver.setTolerance(1e-10);
      solver.setMaxIterations(500);
      auto x = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
      std::shared_ptr<::sidlx::esi::Vector> xi = x;
      auto status = solver.solve(b, xi);
      EXPECT_EQ(status, ::sidlx::esi::SolveStatus::CONVERGED);
      return std::make_tuple(solver.iterationCount(), x);
    };

    auto [itsFast, xFast] = solveWith(false);
    auto [itsPort, xPort] = solveWith(true);
    EXPECT_EQ(itsFast, itsPort);  // identical algorithm on both paths
    xPort->axpy(-1.0, xFast);
    EXPECT_NEAR(xPort->norm2(), 0.0, 1e-9);
  });
}

TEST(EsiPorts, OperatorPortMetadataAndErrors) {
  rt::Comm::run(2, [](rt::Comm& c) {
    auto A = std::make_shared<CsrMatrix>(makePoisson2D(c, 4, 4, 1.0, 1.0));
    comp::CsrOperatorPort op(A);
    EXPECT_EQ(op.rows(), 16);
    EXPECT_EQ(op.cols(), 16);
    auto d = op.diagonal();
    for (std::size_t i = 0; i < d.size(); ++i) EXPECT_DOUBLE_EQ(d(i), 5.0);
    EXPECT_THROW(op.getElement(-1, 0), cca::sidl::PreconditionException);
    EXPECT_THROW(op.getElement(0, 99), cca::sidl::PreconditionException);
    EXPECT_EQ(op.sidlTypeName(), "esi.MatrixAccess");
  });
}

TEST(EsiPorts, SolverErrorsAndMetadata) {
  rt::Comm::run(1, [](rt::Comm& c) {
    comp::KrylovSolverPort solver(comp::KrylovSolverPort::Algo::Gmres);
    EXPECT_EQ(solver.name(), "gmres");
    auto b = std::make_shared<comp::DistVectorPort>(
        c, dist::Distribution::block(4, 1));
    std::shared_ptr<::sidlx::esi::Vector> x = b;
    EXPECT_THROW(solver.solve(b, x), cca::sidl::PreconditionException);
    EXPECT_THROW(solver.setOperator(nullptr), cca::sidl::PreconditionException);
  });
}

TEST(EsiPorts, PrecondPortRequiresSetUp) {
  rt::Comm::run(1, [](rt::Comm& c) {
    comp::PrecondPort p("jacobi");
    EXPECT_THROW(p.setUp(nullptr), cca::sidl::PreconditionException);
    EXPECT_EQ(p.name(), "jacobi");
    EXPECT_FALSE(p.isSetUp());
    auto r = std::make_shared<comp::DistVectorPort>(
        c, dist::Distribution::block(4, 1));
    std::shared_ptr<::sidlx::esi::Vector> z = r;
    EXPECT_THROW(p.apply(r, z), cca::sidl::PreconditionException);
  });
}

TEST(EsiComponents, FrameworkComposedSolverPullsConnectedPreconditioner) {
  // The Fig. 1 solver↔preconditioner pair composed through the framework:
  // the solver's uses port supplies the preconditioner at solve time.
  rt::Comm::run(2, [](rt::Comm& c) {
    core::Framework fw;
    comp::registerEsiComponents(fw);
    EXPECT_EQ(fw.repository().findProviders("esi.LinearSolver").size(), 3u);
    EXPECT_EQ(fw.repository().findProviders("esi.Preconditioner").size(), 4u);

    auto solverId = fw.createInstance("solver", "esi.CgSolver");
    auto precId = fw.createInstance("prec", "esi.Ilu0Precond");
    fw.connect(solverId, "preconditioner", precId, "preconditioner");

    auto A = std::make_shared<CsrMatrix>(makePoisson2D(c, 8, 8, 0.2, 1.0));
    auto opPort = std::make_shared<comp::CsrOperatorPort>(A);

    auto solver = std::dynamic_pointer_cast<comp::KrylovSolverComponent>(
                      fw.instanceObject(solverId))
                      ->port();
    solver->setOperator(opPort);
    solver->setTolerance(1e-9);
    solver->setMaxIterations(500);

    // Prepare the connected preconditioner instance through *its* port
    // surface, as an application assembly step would.
    auto precPorts = fw.providedPorts(precId);
    ASSERT_EQ(precPorts.size(), 1u);
    auto precObj = std::dynamic_pointer_cast<comp::PreconditionerComponent>(
        fw.instanceObject(precId));
    ASSERT_NE(precObj, nullptr);

    auto b = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
    b->fill(1.0);
    auto x = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
    std::shared_ptr<::sidlx::esi::Vector> xi = x;

    // First attempt: the connected preconditioner was never setUp — the
    // error must surface through the solve.
    EXPECT_THROW(solver->solve(b, xi), cca::sidl::PreconditionException);

    // Supply a prepared preconditioner through the explicit hook and retry
    // (the connected-port setup path is exercised by the integration tests).
    auto explicitPrec = std::make_shared<comp::PrecondPort>("ilu0");
    std::shared_ptr<::sidlx::esi::Operator> opIface = opPort;
    explicitPrec->setUp(opIface);
    solver->setPreconditioner(explicitPrec);

    auto status = solver->solve(b, xi);
    EXPECT_EQ(status, ::sidlx::esi::SolveStatus::CONVERGED);
    EXPECT_GT(solver->iterationCount(), 0);
  });
}

TEST(EsiComponents, SolverSwapChangesAlgorithmNotAnswer) {
  // §2.2: "to experiment more easily with multiple solution strategies" —
  // swap the solver component, keep everything else.
  rt::Comm::run(1, [](rt::Comm& c) {
    auto A = std::make_shared<CsrMatrix>(makePoisson2D(c, 10, 10, 0.4, 1.0));
    auto opPort = std::make_shared<comp::CsrOperatorPort>(A);
    auto b = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
    b->fill(1.0);

    std::vector<std::vector<double>> answers;
    for (auto algo : {comp::KrylovSolverPort::Algo::Cg,
                      comp::KrylovSolverPort::Algo::BiCgStab,
                      comp::KrylovSolverPort::Algo::Gmres}) {
      comp::KrylovSolverPort solver(algo);
      solver.setOperator(opPort);
      solver.setTolerance(1e-11);
      solver.setMaxIterations(1000);
      auto x = std::make_shared<comp::DistVectorPort>(c, A->rowDistribution());
      std::shared_ptr<::sidlx::esi::Vector> xi = x;
      EXPECT_EQ(solver.solve(b, xi), ::sidlx::esi::SolveStatus::CONVERGED);
      auto vals = x->localValues();
      answers.emplace_back(vals.data().begin(), vals.data().end());
    }
    for (std::size_t i = 1; i < answers.size(); ++i)
      for (std::size_t k = 0; k < answers[0].size(); ++k)
        EXPECT_NEAR(answers[i][k], answers[0][k], 1e-7);
  });
}
