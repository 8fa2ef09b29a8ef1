/**
 * @file
 * Tests for configuration persistence: round-trip fidelity, rejection
 * of malformed input, and the end-to-end restart story — a reloaded
 * configuration reproduces the tuned mini-batch time exactly.
 */
#include <gtest/gtest.h>

#include <locale>
#include <string>

#include "core/astra.h"
#include "core/config_io.h"
#include "models/models.h"

namespace astra {
namespace {

TEST(ConfigIo, RoundTripAllFields)
{
    ScheduleConfig cfg;
    cfg.strategy = 2;
    cfg.elementwise_fusion = false;
    cfg.use_streams = true;
    cfg.num_streams = 3;
    cfg.group_chunk = {1, 4, 2};
    cfg.group_lib = {GemmLib::Oai1, GemmLib::Cublas, GemmLib::Oai2};
    cfg.single_lib[17] = GemmLib::Oai2;
    cfg.single_lib[99] = GemmLib::Cublas;
    cfg.epoch_choice[{0, 2}] = 3;
    cfg.epoch_choice[{4, 0}] = 1;

    ScheduleConfig back;
    ASSERT_TRUE(config_from_string(config_to_string(cfg), &back));
    EXPECT_EQ(back.strategy, 2);
    EXPECT_FALSE(back.elementwise_fusion);
    EXPECT_TRUE(back.use_streams);
    EXPECT_EQ(back.num_streams, 3);
    EXPECT_EQ(back.group_chunk, cfg.group_chunk);
    EXPECT_EQ(back.group_lib, cfg.group_lib);
    EXPECT_EQ(back.single_lib, cfg.single_lib);
    EXPECT_EQ(back.epoch_choice, cfg.epoch_choice);
}

TEST(ConfigIo, RoundTripEmptyConfig)
{
    ScheduleConfig cfg;
    ScheduleConfig back;
    ASSERT_TRUE(config_from_string(config_to_string(cfg), &back));
    EXPECT_EQ(back.strategy, 0);
    EXPECT_TRUE(back.group_chunk.empty());
    EXPECT_TRUE(back.epoch_choice.empty());
}

TEST(ConfigIo, RejectsMalformedInput)
{
    ScheduleConfig cfg;
    cfg.strategy = 7;
    ScheduleConfig probe = cfg;
    EXPECT_FALSE(config_from_string("", &probe));
    EXPECT_FALSE(config_from_string("not-a-config\n", &probe));
    EXPECT_FALSE(config_from_string(
        "astra-config v1\nbogus_key 3\n", &probe));
    EXPECT_FALSE(config_from_string(
        "astra-config v1\ngroup_lib 99\n", &probe));
    EXPECT_FALSE(config_from_string(
        "astra-config v1\nsingle_lib nocolon\n", &probe));
    // Failed parses leave the destination untouched.
    EXPECT_EQ(probe.strategy, 7);
}

TEST(ConfigIo, MalformedNumbersReturnFalseNeverThrow)
{
    // Config files are untrusted input: a corrupted token must fail
    // the load, never escape as std::invalid_argument/out_of_range.
    const char* cases[] = {
        "astra-config v1\nsingle_lib x:y\n",
        "astra-config v1\nsingle_lib :\n",
        "astra-config v1\nsingle_lib 5:\n",
        "astra-config v1\nsingle_lib :2\n",
        "astra-config v1\nsingle_lib 5:two\n",
        "astra-config v1\nsingle_lib -1:0\n",
        "astra-config v1\nsingle_lib 5:3\n",  // lib out of range
        "astra-config v1\nsingle_lib 99999999999999999999:0\n",
        "astra-config v1\nsingle_lib 5:99999999999999999999\n",
        "astra-config v1\nepoch_choice 1,:2\n",
        "astra-config v1\nepoch_choice ,1:2\n",
        "astra-config v1\nepoch_choice 1,2\n",   // no colon
        "astra-config v1\nepoch_choice 1:2,3\n", // colon before comma
        "astra-config v1\nepoch_choice a,b:c\n",
        "astra-config v1\nepoch_choice 1,99999999999999999999:2\n",
        // A malformed list token fails the load instead of truncating
        // the list at it.
        "astra-config v1\ngroup_chunk 1 x 2\n",
        "astra-config v1\ngroup_chunk 1 0\n",   // chunk below 1
        "astra-config v1\ngroup_lib 0 zz\n",
        // Scalars: one well-formed, in-range token and nothing after.
        "astra-config v1\nstrategy 3 junk\n",
        "astra-config v1\nstrategy -1\n",
        "astra-config v1\nstrategy 2x\n",
        "astra-config v1\nstrategy\n",
        "astra-config v1\nnum_streams -4\n",
        "astra-config v1\nnum_streams 0\n",
        "astra-config v1\nuse_streams 1 1\n",
        "astra-config v1\nelementwise_fusion yes\n",
    };
    for (const char* text : cases) {
        ScheduleConfig probe;
        std::string error;
        EXPECT_NO_THROW(
            EXPECT_FALSE(config_from_string(text, &probe, &error))
            << text);
        // Every case is broken on its second line.
        EXPECT_EQ(error.rfind("line 2: ", 0), 0u) << text << error;
    }
}

TEST(ConfigIo, FailureDiagnosisNamesTheLine)
{
    // Loaders are fed untrusted files; the CLI surfaces the returned
    // error verbatim, so it must carry the line and the reason.
    ScheduleConfig probe;
    std::string error;
    EXPECT_FALSE(config_from_string(
        "astra-config v1\nstrategy 1\nbogus_key 3\n", &probe, &error));
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
    EXPECT_NE(error.find("bogus_key"), std::string::npos) << error;

    error.clear();
    EXPECT_FALSE(config_from_string("not-a-config\n", &probe, &error));
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(ProfileIo, RoundTripBitExact)
{
    MeasurementPolicy noisy = MeasurementPolicy::noise_robust();
    ProfileIndex idx(noisy);
    idx.record("s0|fmm.x4|0", 123.456789);
    idx.record("s0|fmm.x4|0", 124.0);
    idx.record("s0|fmm.x4|0", 1.0 / 3.0);
    idx.record("s0|key with spaces|2", 0.5);
    idx.record_fault("s0|quarantined|1");
    idx.record_fault("s0|quarantined|1");

    ProfileIndex back(noisy);
    std::string error;
    ASSERT_TRUE(profile_index_from_string(profile_index_to_string(idx),
                                          &back, &error))
        << error;
    ASSERT_EQ(back.size(), idx.size());
    EXPECT_EQ(back.total_samples(), idx.total_samples());
    EXPECT_EQ(back.total_rejected(), idx.total_rejected());
    EXPECT_EQ(back.total_faults(), idx.total_faults());
    EXPECT_EQ(back.quarantined_keys(), idx.quarantined_keys());
    auto it = idx.entries().begin();
    auto bt = back.entries().begin();
    for (; it != idx.entries().end(); ++it, ++bt) {
        EXPECT_EQ(it->first, bt->first);
        EXPECT_EQ(it->second.count, bt->second.count);
        EXPECT_EQ(it->second.min, bt->second.min);    // bit-exact
        EXPECT_EQ(it->second.mean, bt->second.mean);  // bit-exact
        EXPECT_EQ(it->second.m2, bt->second.m2);      // bit-exact
        EXPECT_EQ(it->second.window(), bt->second.window());
    }
}

TEST(ProfileIo, RoundTripMergedAndOutlierRejectedState)
{
    // A parallel exploration merges per-strategy shards and rejects
    // outliers; the persisted index must reproduce that exact state so
    // a warm-started wirer ranks choices identically.
    MeasurementPolicy policy;
    policy.outlier_mad_k = 3.0;
    policy.outlier_min_window = 5;
    ProfileIndex a(policy), b(policy);
    for (int i = 0; i < 12; ++i)
        a.record("shared|k|0", 100.0 + 0.0625 * i);
    EXPECT_FALSE(a.record("shared|k|0", 1e6));  // outlier, rejected
    for (int i = 0; i < 7; ++i)
        b.record("shared|k|0", 101.0 + 0.125 * i);
    b.record_fault("s1|only|3");
    a.merge(b);

    ProfileIndex back;
    ASSERT_TRUE(
        profile_index_from_string(profile_index_to_string(a), &back));
    const ProfileStats* s = back.stats("shared|k|0");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->count, 19);
    EXPECT_EQ(s->rejected, 1);
    EXPECT_EQ(s->mean, a.stats("shared|k|0")->mean);
    EXPECT_EQ(s->m2, a.stats("shared|k|0")->m2);
    EXPECT_EQ(back.total_rejected(), 1);
    EXPECT_EQ(back.quarantined_keys(), a.quarantined_keys());
}

TEST(ProfileIo, PropertyRandomRoundTrips)
{
    // Property-style sweep: random indices (deterministic LCG) must
    // round-trip bit-exactly, whatever the sample values look like.
    uint64_t state = 0x243f6a8885a308d3ull;
    auto rnd = [&]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 11;
    };
    for (int trial = 0; trial < 20; ++trial) {
        ProfileIndex idx;
        const int keys = static_cast<int>(rnd() % 8);
        for (int k = 0; k < keys; ++k) {
            const std::string key = "s" + std::to_string(rnd() % 3) +
                                    "|v" + std::to_string(k) + "|" +
                                    std::to_string(rnd() % 4);
            const int samples = 1 + static_cast<int>(rnd() % 40);
            for (int s = 0; s < samples; ++s)
                idx.record(key,
                           static_cast<double>(rnd()) *
                               (1.0 + 1e-9 * static_cast<double>(s)));
            if (rnd() % 4 == 0)
                idx.record_fault(key);
        }
        ProfileIndex back;
        std::string error;
        ASSERT_TRUE(profile_index_from_string(
            profile_index_to_string(idx), &back, &error))
            << "trial " << trial << ": " << error;
        ASSERT_EQ(back.size(), idx.size()) << "trial " << trial;
        EXPECT_EQ(back.total_samples(), idx.total_samples());
        auto it = idx.entries().begin();
        auto bt = back.entries().begin();
        for (; it != idx.entries().end(); ++it, ++bt) {
            EXPECT_EQ(it->first, bt->first);
            EXPECT_EQ(it->second.min, bt->second.min);
            EXPECT_EQ(it->second.max, bt->second.max);
            EXPECT_EQ(it->second.mean, bt->second.mean);
            EXPECT_EQ(it->second.m2, bt->second.m2);
            EXPECT_EQ(it->second.window(), bt->second.window());
        }
    }
}

TEST(ProfileIo, RejectsMalformedWithLineDiagnosis)
{
    const struct
    {
        const char* text;
        const char* expect;  // substring of the diagnosis
    } cases[] = {
        {"", "line 1"},
        {"not-a-profile\n", "line 1"},
        {"astra-profile v2\nentries 0\n", "line 1"},
        {"astra-profile v1\n", "line 2"},
        {"astra-profile v1\nentries x\n", "line 2"},
        {"astra-profile v1\nentries 1\n", "line 3"},
        {"astra-profile v1\nentries 1\nstat 1 0 0\n", "line 3"},
        {"astra-profile v1\nentries 1\n"
         "stat z 0 0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0 key\n",
         "line 3"},
        {"astra-profile v1\nentries 2\n"
         "stat 1 0 0 0x1p+0 0x1p+0 0x1p+0 0x0p+0 1 0x1p+0 k\n",
         "line 4"},  // fewer entries than declared
    };
    for (const auto& c : cases) {
        ProfileIndex probe;
        probe.record("canary", 1.0);
        std::string error;
        EXPECT_FALSE(
            profile_index_from_string(c.text, &probe, &error))
            << c.text;
        EXPECT_NE(error.find(c.expect), std::string::npos)
            << "input: " << c.text << "\ndiagnosis: " << error;
        // Failed parses leave the destination untouched.
        EXPECT_EQ(probe.size(), 1u);
        EXPECT_TRUE(probe.contains("canary"));
    }
}

TEST(CheckpointIo, RoundTripIsBitExact)
{
    WirerCheckpoint cp;
    cp.strategies.resize(2);
    DispatchRecord r0;
    r0.total_ns = 1.0 / 3.0;  // not representable in decimal
    r0.clock_multiplier = 1.0 + 0.12 * (1.0 / 7.0);
    r0.profile = {{"g0", 12345.678901234567}, {"fmm.x2.%5.oai_1", 0.1}};
    DispatchRecord r1;
    r1.total_ns = 9.87654e12;
    r1.faulted = true;
    r1.fault_attempts = 3;
    r1.faults_seen = 5;
    r1.straggler_events = 2;
    r1.backoff_ns = 50.0 * 1e3 * 7.0;
    cp.strategies[0] = {r0, r1};
    // Strategy 1 left empty: shards may not have dispatched yet.

    WirerCheckpoint back;
    ASSERT_TRUE(checkpoint_from_string(checkpoint_to_string(cp), &back));
    ASSERT_EQ(back.strategies.size(), 2u);
    ASSERT_EQ(back.strategies[0].size(), 2u);
    EXPECT_TRUE(back.strategies[1].empty());
    const DispatchRecord& b0 = back.strategies[0][0];
    EXPECT_EQ(b0.total_ns, r0.total_ns);  // bit-exact, not NEAR
    EXPECT_EQ(b0.clock_multiplier, r0.clock_multiplier);
    EXPECT_FALSE(b0.faulted);
    ASSERT_EQ(b0.profile.size(), 2u);
    EXPECT_EQ(b0.profile[0].first, "g0");
    EXPECT_EQ(b0.profile[0].second, r0.profile[0].second);
    EXPECT_EQ(b0.profile[1].first, "fmm.x2.%5.oai_1");
    EXPECT_EQ(b0.profile[1].second, 0.1);
    const DispatchRecord& b1 = back.strategies[0][1];
    EXPECT_EQ(b1.total_ns, r1.total_ns);
    EXPECT_TRUE(b1.faulted);
    EXPECT_EQ(b1.fault_attempts, 3);
    EXPECT_EQ(b1.faults_seen, 5);
    EXPECT_EQ(b1.straggler_events, 2);
    EXPECT_EQ(b1.backoff_ns, r1.backoff_ns);
}

TEST(CheckpointIo, RoundTripEmpty)
{
    WirerCheckpoint cp;
    EXPECT_TRUE(cp.empty());
    WirerCheckpoint back;
    ASSERT_TRUE(checkpoint_from_string(checkpoint_to_string(cp), &back));
    EXPECT_TRUE(back.empty());
}

TEST(CheckpointIo, RejectsMalformedInput)
{
    WirerCheckpoint probe;
    probe.strategies.resize(3);  // canary
    const char* cases[] = {
        "",
        "not-a-checkpoint\n",
        "astra-checkpoint v2\nstrategies 0\n",
        "astra-checkpoint v1\nstrategies x\n",
        "astra-checkpoint v1\nstrategies 1\n",  // missing strategy line
        "astra-checkpoint v1\nstrategies 1\nstrategy 1 0\n",  // sid wrong
        "astra-checkpoint v1\nstrategies 1\nstrategy 0 1\n",  // no record
        "astra-checkpoint v1\nstrategies 1\nstrategy 0 1\n"
        "record zzz 0x1p+0 0 0 0 0 0x0p+0 0\n",
        "astra-checkpoint v1\nstrategies 1\nstrategy 0 1\n"
        "record 0x1p+0 0x1p+0 0 0 0 0 0x0p+0 1\n",  // missing prof
        "astra-checkpoint v1\nstrategies 1\nstrategy 0 1\n"
        "record 0x1p+0 0x1p+0 0 0 0 0 0x0p+0 1\nprof nope key\n",
    };
    for (const char* text : cases) {
        WirerCheckpoint copy = probe;
        EXPECT_FALSE(checkpoint_from_string(text, &copy)) << text;
        EXPECT_EQ(copy.strategies.size(), 3u) << text;  // untouched
    }
}

TEST(ConfigIo, RestartReproducesTunedTime)
{
    const BuiltModel m =
        build_model(ModelKind::Scrnn,
                    {.batch = 8, .seq_len = 4, .hidden = 32,
                     .embed_dim = 32, .vocab = 50});
    AstraOptions opts;
    opts.gpu.execute_kernels = false;
    // Exact reproduction requires base clock (§4.1) — pin it so the
    // CI noise job doesn't inject jitter between the two sessions.
    opts.gpu.autoboost = false;
    AstraSession session(m.graph(), opts);
    const WirerResult r = session.optimize();

    // "Restart": a fresh session + the persisted configuration.
    const std::string saved = config_to_string(r.best_config);
    AstraSession restarted(m.graph(), opts);
    ScheduleConfig loaded;
    ASSERT_TRUE(config_from_string(saved, &loaded));
    EXPECT_DOUBLE_EQ(restarted.run(loaded).total_ns, r.best_ns);
}

/** numpunct facet of a de_DE-style locale: ',' decimal, '.' grouping. */
class CommaDecimal : public std::numpunct<char>
{
  protected:
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

/** RAII global-locale override (restored even on ASSERT failure). */
class ScopedGlobalLocale
{
  public:
    explicit ScopedGlobalLocale(const std::locale& loc)
        : prev_(std::locale::global(loc))
    {
    }
    ~ScopedGlobalLocale() { std::locale::global(prev_); }

  private:
    std::locale prev_;
};

TEST(ConfigIo, RoundTripsUnderCommaDecimalGlobalLocale)
{
    // A checkpoint written on one host must load on a host whose
    // global locale writes "1,5" for 1.5 and groups thousands as
    // "1.234": the persistence layer pins the classic locale on its
    // own streams and parses numbers with std::from_chars, so the
    // ambient locale must not matter in either direction.
    const ScopedGlobalLocale guard(
        std::locale(std::locale::classic(), new CommaDecimal));

    ScheduleConfig cfg;
    cfg.strategy = 1;
    cfg.num_streams = 2;
    cfg.group_chunk = {1234, 4};  // > 3 digits: grouping bait
    cfg.group_lib = {GemmLib::Cublas, GemmLib::Oai1};
    cfg.single_lib[1001] = GemmLib::Oai2;
    cfg.epoch_choice[{0, 1}] = 2;
    ScheduleConfig cback;
    std::string error;
    ASSERT_TRUE(config_from_string(config_to_string(cfg), &cback, &error))
        << error;
    EXPECT_EQ(cback.group_chunk, cfg.group_chunk);
    EXPECT_EQ(cback.single_lib, cfg.single_lib);
    EXPECT_EQ(config_to_string(cback), config_to_string(cfg));

    ProfileIndex idx;
    idx.record("k|0", 1.0 / 3.0);
    idx.record("k|0", 123456.789);
    ProfileIndex iback;
    ASSERT_TRUE(profile_index_from_string(profile_index_to_string(idx),
                                          &iback, &error))
        << error;
    EXPECT_EQ(iback.stats("k|0")->mean, idx.stats("k|0")->mean);
    EXPECT_EQ(iback.stats("k|0")->m2, idx.stats("k|0")->m2);

    WirerCheckpoint cp;
    cp.strategies.resize(1);
    DispatchRecord r;
    r.total_ns = 1234567.25;
    r.clock_multiplier = 1.0 + 1.0 / 7.0;
    r.profile = {{"g0", 1.0 / 3.0}};
    cp.strategies[0] = {r};
    WirerCheckpoint wback;
    ASSERT_TRUE(checkpoint_from_string(checkpoint_to_string(cp), &wback,
                                       &error))
        << error;
    EXPECT_EQ(wback.strategies[0][0].total_ns, r.total_ns);
    EXPECT_EQ(wback.strategies[0][0].clock_multiplier,
              r.clock_multiplier);
    EXPECT_EQ(wback.strategies[0][0].profile[0].second, 1.0 / 3.0);
}

TEST(ProfileIo, HexfloatParsesWithAndWithoutPrefixAndSign)
{
    // "%a"-style fixtures written by other tools may drop the "0x"
    // prefix; both spellings (and an explicit sign) must parse to the
    // same bits. 0x1.8p+3 == 12.0.
    const char* variants[] = {
        "astra-profile v1\nentries 1\n"
        "stat 1 0 0 0x1.8p+3 0x1.8p+3 0x1.8p+3 0x0p+0 0 k\n",
        "astra-profile v1\nentries 1\n"
        "stat 1 0 0 1.8p+3 1.8p+3 1.8p+3 0x0p+0 0 k\n",
        "astra-profile v1\nentries 1\n"
        "stat 1 0 0 +0x1.8p+3 0X1.8P+3 0x1.8p+3 0x0p+0 0 k\n",
    };
    for (const char* text : variants) {
        ProfileIndex back;
        std::string error;
        ASSERT_TRUE(profile_index_from_string(text, &back, &error))
            << error << "\n" << text;
        EXPECT_EQ(back.stats("k")->mean, 12.0) << text;
    }
    // Negative values keep their sign through the manual strip.
    ProfileIndex neg;
    ASSERT_TRUE(profile_index_from_string(
        "astra-profile v1\nentries 1\n"
        "stat 1 0 0 -0x1.8p+3 -0x1.8p+3 -0x1.8p+3 0x0p+0 0 k\n",
        &neg));
    EXPECT_EQ(neg.stats("k")->mean, -12.0);
    // A comma decimal separator is never silently accepted — the token
    // must fail whole-string parsing, not truncate at the comma.
    ProfileIndex comma;
    EXPECT_FALSE(profile_index_from_string(
        "astra-profile v1\nentries 1\n"
        "stat 1 0 0 1,5 1,5 1,5 0x0p+0 0 k\n",
        &comma));
}

}  // namespace
}  // namespace astra
