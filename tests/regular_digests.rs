//! Pins the Steger–Wormald generator bit for bit: for each `(n, r, seed)`
//! the SHA-256 digest of every CSR array the graph holds, plus the number
//! of phase attempts the draw took, or the error it returns.
//!
//! A rewrite of the generator must reproduce this table unchanged. The
//! rows cover r ∈ {3, 4, 5, 7} up to n = 10,000, draws that restart, the
//! connected variant (which also rejects whole disconnected samples) and
//! every parameter error.

use eproc::engine::digest::sha256;
use eproc::graphs::generators::{connected_random_regular_counted, steger_wormald_counted};
use eproc::graphs::{Graph, GraphError};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SHA-256, as little-endian `u32`, of what the accessors read: offsets,
/// arc targets, arc edges, arc twins, edge endpoints, edge arcs.
fn graph_digest(g: &Graph) -> String {
    let mut words: Vec<usize> = Vec::new();
    words.extend(g.vertices().map(|v| g.arc_range(v).start));
    words.push(g.total_degree());
    let arcs = 0..g.total_degree();
    words.extend(arcs.clone().map(|a| g.arc_target(a)));
    words.extend(arcs.clone().map(|a| g.arc_edge(a)));
    words.extend(arcs.map(|a| g.arc_twin(a)));
    for e in 0..g.m() {
        let (u, v) = g.endpoints(e);
        words.extend([u, v]);
    }
    for e in 0..g.m() {
        let (a, b) = g.edge_arcs(e);
        words.extend([a, b]);
    }
    let bytes: Vec<u8> = words
        .iter()
        .flat_map(|&w| u32::try_from(w).expect("ids fit u32").to_le_bytes())
        .collect();
    sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect()
}

/// One table cell: `"<attempts> <digest>"` for a graph, the error's
/// `Display` for an error.
fn outcome(result: Result<(Graph, usize), GraphError>) -> String {
    match result {
        Ok((g, attempts)) => format!("{attempts} {}", graph_digest(&g)),
        Err(e) => format!("error: {e}"),
    }
}

/// `(n, r, seed, outcome)`.
type Case = (usize, usize, u64, &'static str);

/// A generator under test, called as `generate(n, r, rng)`.
type Generator = fn(usize, usize, &mut SmallRng) -> Result<(Graph, usize), GraphError>;

/// `steger_wormald_counted(n, r, SmallRng::seed_from_u64(seed))`.
const STEGER_WORMALD: &[Case] = &[
    (4, 3, 0, "1 92f0b0cb53224465c9829a3d0925a63ac26efa6e52193dce7ee28230ba9f254f"),
    (4, 3, 1, "1 9eb40a927d29c7709302a995df861125aab582f9e1cc3ede5f0b68c3ba7072f9"),
    (4, 3, 2, "1 7829630c6c5d96c208409a3c16b3e3570acf776a45e5d8aecd69e7f0b2d2ce0b"),
    (10, 3, 0, "1 2030d31b59bf7465d6ba323fab832cc6f59256740ebf9b90ebe2c793ca50f485"),
    (10, 3, 1, "1 7d73664375c263c9980c679a4aca9a996af098708a67e99fe1577f39ab296c46"),
    (10, 3, 2, "1 8efcd6fda82aee4fb5985af95cfe24bf0d2170e4fc8cbde738af29f2a23fa854"),
    (100, 3, 0, "1 a698479df836612a42651aca20dda807639d68ca52e40823d3236340992ae736"),
    (100, 3, 1, "1 89bc2ff187d710ac0482a350cc32e53d030ac4aeb6bc8f857c5d1e074f176f63"),
    (100, 3, 2, "1 591c918779a488b9e1fe3bbfc1b9b0ec2ac1b6f655390565cfa539f585c486d4"),
    (1000, 3, 0, "1 9cc9535fdb4fd2591c4d934159650fb81b3c8b04f60f76ee9218701f22adab91"),
    (1000, 3, 1, "1 3fff57509a877e3d69062133087ca1f61b13f2ff52ec16646d04017bff9732b3"),
    (1000, 3, 2, "1 cbab0d1480f2c3ad502eb21ff4d310b5580175cc3164138c24eeab496c8dce77"),
    (10000, 3, 0, "1 588ebe3da83f2d50974eab07365865a42a4122a8392a3c40b3546f8d06aff9c8"),
    (10000, 3, 1, "1 d8637e8cd05ab43197e6abba8d167a65f26dc725e8604db0f458659b3a8488c6"),
    (10000, 3, 2, "1 866cd9ee7de9613407c312f1869f4336187e465cbb1fbf3dfed411901cda6d54"),
    (5, 4, 0, "1 9890c7b83a3473480f3af83f8aba004b569b5c1ce085f88d5d36367c4f517b99"),
    (5, 4, 1, "1 1cbbbee69429616fd699be241fedbee6c5a3bfe4cd1d0d3b1f7e898d977ed286"),
    (5, 4, 2, "1 12dbdf4b5ebd5d9eec93413ea72bcfe93e26e25b1edb7b82a4047d367119a7f3"),
    (10, 4, 0, "1 005ae0cf2664aef1f435df085f3574018cbe8ef683474793f5957777303f9876"),
    (10, 4, 1, "1 57d63e6c967d37e4eaa7af71f6126a19cf1681b713410b7ab66f6b44990f5444"),
    (10, 4, 2, "1 fb5e966e1855107167eece94caa8afe6547e3e5dd4ee7682082a60eacad9f802"),
    (100, 4, 0, "1 071a3420e292c6c89c1fc89b0308c51e261797d9d7063e6e9a2d1662b51a2eaf"),
    (100, 4, 1, "1 e0a6faddb186e5d4b1f437388a63df52a7df40892c23ebfc77af689f6842f27e"),
    (100, 4, 2, "1 abb72bba4c2e5e918f45ba3c4bf3bc358c0c37a7386e908c3d5eef11f23f8c5c"),
    (1000, 4, 0, "1 03af5e185b17194c933b0b33921cfd6358ab33ee1af27781e28101a4043f819b"),
    (1000, 4, 1, "1 8a8256cff61d222ffa184212aecd2ba0044e5dabf817ab21ab225654b3e84846"),
    (1000, 4, 2, "1 3d509a9ff84014420b3d810e164d9af28583398037f7f58414c41171c8f946c1"),
    (10000, 4, 0, "1 2cf6032ce1ed173192fd87d395bfac0c9269f57e68f8907fff68c7018972ed2c"),
    (10000, 4, 1, "1 2e380726271e08baf248c820d563382d471f58d226adaa2e2f3a73fce428abde"),
    (10000, 4, 2, "1 310b70aaa429274be7b6a7d24b0c7c297f11814f771830cfe026f849e5b721f8"),
    (6, 5, 0, "1 f6db83e0810fa926ce7a49ce409ebb65a800ebe5b41e8ecf08b3517f2bd77775"),
    (6, 5, 1, "1 6abe7ea06b3da7e4defb519b56daea927535cce5d2f761fef1ee92249fca9c9b"),
    (6, 5, 2, "1 5f8b1686f414d7dc4e74b6f4c91a745c611fff18c6bc9623a678712d5d93da47"),
    (8, 5, 0, "1 50a15727f8d67af740d3faf4811dec58fcaa30b289c1f96e092ca747e4784b54"),
    (8, 5, 1, "3 f8be664644eb89205669b4381ee5f2aab336318723c7c084eae6b5b8d6230196"),
    (8, 5, 2, "3 d33c0c88c907dd742d19397a0e95686cda2b6c5335fc796f45cd6f43af4688f4"),
    (50, 5, 0, "1 7e740d7f5d63a0576596d92722d2b7be94aa28655ccdae647daa021d0b9f1123"),
    (50, 5, 1, "1 31560934f586f0027170d235e94c54f3d794d7bb0ee92955f779cbc3b94ff116"),
    (50, 5, 2, "1 7e20d741186dbf66302b42057e0ff9c0a2a1309fba778327312a2166f843c367"),
    (1000, 5, 0, "1 7708ab084c94c0721b4afeb74ceb393ce3794abce8bb7062d01a70019cf2ed35"),
    (1000, 5, 1, "1 609e04de8a6e2c361afb3dbbcdc6fbaa361261a3ab845209c6ce0e3a5828d7da"),
    (1000, 5, 2, "1 03e7f5c2a8ac9c0915636383693f0da6e4e5828eea9bf77e35624f8c967e84d7"),
    (10000, 5, 0, "1 5bd6149cc6ba9f04b24d60476b29620c788f969a64daf54965f17db06d6b9de4"),
    (10000, 5, 1, "1 936a98e76077cdfc55f913cec47bc4f34b32602ad7d8862442f3746acc573f05"),
    (10000, 5, 2, "1 a493d59fcc546ac32d1ca3adf923aa0f62c6ae14ca40f9953b53f70c6e514d58"),
    (8, 7, 0, "1 e061d8fca2890b030e1afac12c7f0cae8d753bf6c19fb25dbe6f708da26d7df0"),
    (8, 7, 1, "1 85b55c89462fd46f199a303f18668a7c5eaa2bc55ce1b0f1e313d70bfcc3c34b"),
    (8, 7, 2, "1 a70d1762e34b2bef6f34460b139fbdf43104ce8efc2ce26fb851c207a522316f"),
    (10, 7, 0, "4 63c8ffd37acb58020e5810466c518c777d4369f04ed3c09479faa76efef33f0c"),
    (10, 7, 1, "1 bb24f7d8dc0d092a6f452e9df5223166211037cb0cae3d6cfa1fce70714cc17b"),
    (10, 7, 2, "8 6d1f68cd0e76a735adc1e4a65c1591e5823a6f0becd288fd2b59738d0a95a5d3"),
    (100, 7, 0, "1 e31ec69aaece02d5f8ffb10f5deb45ecd741dcab31090b6a6c3c4b4af3cef59a"),
    (100, 7, 1, "1 6f1e79be491f39ccd5d617cb69b53fd7526d85dd3bda39ebf9917d8caf0ac24f"),
    (100, 7, 2, "1 7f60e28f4ab637a6d3547bbf26559d4acfb32bc341468242f5b2652eb9201006"),
    (1000, 7, 0, "1 8a064d629c62d4b67acb226ff57eb5908fb63fafb1b3a0f7609b4dfad7135676"),
    (1000, 7, 1, "1 6992d8803d35f274a8c8f418214b937ac89298b1cf5ec639c47100242484c8b5"),
    (1000, 7, 2, "1 94fc012d1b494a6fb1ac2c11664d71985e02f63dd0077cc344e0ac58258a3f19"),
    (10000, 7, 0, "1 277b9012e8c4c1d74f883980eb8e7be1042b935fcc87c7ed056e3df70c00ab94"),
    (10000, 7, 1, "1 cf35b5f3aa13f224e383adf6b93574672f1cc2838b78e76e913e6c15dfca929c"),
    (10000, 7, 2, "1 762712e4749082aa0f162a050b66df6a099dea54bcb83cfbc537ec71c4504e6f"),
    (0, 3, 0, "1 df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"),
    (6, 0, 0, "1 3addfb141cd7c9c4c6543a82191a3707ac29c7a041217782e61d4d91c691aee8"),
    (12, 2, 5, "1 71522909aba0612aabd071cfe95bbb1ba23ea18dc49c0bac5a8b754b293c92cf"),
    (5, 3, 0, "error: infeasible degree sequence: degree sum 15 is odd"),
    (4, 4, 0, "error: infeasible degree sequence: vertex 0 has degree 4 >= n = 4 (simple graph impossible)"),
    (3, 7, 0, "error: infeasible degree sequence: degree sum 21 is odd"),
    (7, 9, 1, "error: infeasible degree sequence: degree sum 63 is odd"),
];

/// `connected_random_regular_counted(n, r, SmallRng::seed_from_u64(seed))`.
const CONNECTED: &[Case] = &[
    (4, 3, 0, "1 92f0b0cb53224465c9829a3d0925a63ac26efa6e52193dce7ee28230ba9f254f"),
    (4, 3, 1, "1 9eb40a927d29c7709302a995df861125aab582f9e1cc3ede5f0b68c3ba7072f9"),
    (4, 3, 2, "1 7829630c6c5d96c208409a3c16b3e3570acf776a45e5d8aecd69e7f0b2d2ce0b"),
    (10, 3, 0, "1 2030d31b59bf7465d6ba323fab832cc6f59256740ebf9b90ebe2c793ca50f485"),
    (10, 3, 1, "1 7d73664375c263c9980c679a4aca9a996af098708a67e99fe1577f39ab296c46"),
    (10, 3, 2, "1 8efcd6fda82aee4fb5985af95cfe24bf0d2170e4fc8cbde738af29f2a23fa854"),
    (100, 3, 0, "1 a698479df836612a42651aca20dda807639d68ca52e40823d3236340992ae736"),
    (100, 3, 1, "1 89bc2ff187d710ac0482a350cc32e53d030ac4aeb6bc8f857c5d1e074f176f63"),
    (100, 3, 2, "1 591c918779a488b9e1fe3bbfc1b9b0ec2ac1b6f655390565cfa539f585c486d4"),
    (2000, 3, 0, "1 cb313bd266b6010e732aefd65f8cde685be56f92e63a8e27363601edd179ddf2"),
    (2000, 3, 1, "1 4e75e04049caa3757acc0a883da22537b5ae511400b5e9f5083e1a228dd71e63"),
    (2000, 3, 2, "1 a656c6efd82117e0eee3f9dae41fcd49c559752f04436d05a6bf7072ec7ca46b"),
    (5, 4, 0, "1 9890c7b83a3473480f3af83f8aba004b569b5c1ce085f88d5d36367c4f517b99"),
    (5, 4, 1, "1 1cbbbee69429616fd699be241fedbee6c5a3bfe4cd1d0d3b1f7e898d977ed286"),
    (5, 4, 2, "1 12dbdf4b5ebd5d9eec93413ea72bcfe93e26e25b1edb7b82a4047d367119a7f3"),
    (100, 4, 0, "1 071a3420e292c6c89c1fc89b0308c51e261797d9d7063e6e9a2d1662b51a2eaf"),
    (100, 4, 1, "1 e0a6faddb186e5d4b1f437388a63df52a7df40892c23ebfc77af689f6842f27e"),
    (100, 4, 2, "1 abb72bba4c2e5e918f45ba3c4bf3bc358c0c37a7386e908c3d5eef11f23f8c5c"),
    (4096, 4, 0, "1 f953194fcaee326538c1c6eef591b85c62e4c2eb63e7bd1a6b9092d5a001752a"),
    (4096, 4, 1, "1 0e52df523c37010813dbe1fdbe39e585cd55f67976ef02b2f3b2e837a5673fe2"),
    (4096, 4, 2, "1 3b64816fac5713820c41555a2308fb75b6df51c468407e386a9c00464f4a8b43"),
    (8, 5, 0, "1 50a15727f8d67af740d3faf4811dec58fcaa30b289c1f96e092ca747e4784b54"),
    (8, 5, 1, "3 f8be664644eb89205669b4381ee5f2aab336318723c7c084eae6b5b8d6230196"),
    (8, 5, 2, "3 d33c0c88c907dd742d19397a0e95686cda2b6c5335fc796f45cd6f43af4688f4"),
    (50, 5, 0, "1 7e740d7f5d63a0576596d92722d2b7be94aa28655ccdae647daa021d0b9f1123"),
    (50, 5, 1, "1 31560934f586f0027170d235e94c54f3d794d7bb0ee92955f779cbc3b94ff116"),
    (50, 5, 2, "1 7e20d741186dbf66302b42057e0ff9c0a2a1309fba778327312a2166f843c367"),
    (1000, 5, 0, "1 7708ab084c94c0721b4afeb74ceb393ce3794abce8bb7062d01a70019cf2ed35"),
    (1000, 5, 1, "1 609e04de8a6e2c361afb3dbbcdc6fbaa361261a3ab845209c6ce0e3a5828d7da"),
    (1000, 5, 2, "1 03e7f5c2a8ac9c0915636383693f0da6e4e5828eea9bf77e35624f8c967e84d7"),
    (8, 7, 0, "1 e061d8fca2890b030e1afac12c7f0cae8d753bf6c19fb25dbe6f708da26d7df0"),
    (8, 7, 1, "1 85b55c89462fd46f199a303f18668a7c5eaa2bc55ce1b0f1e313d70bfcc3c34b"),
    (8, 7, 2, "1 a70d1762e34b2bef6f34460b139fbdf43104ce8efc2ce26fb851c207a522316f"),
    (10, 7, 0, "4 63c8ffd37acb58020e5810466c518c777d4369f04ed3c09479faa76efef33f0c"),
    (10, 7, 1, "1 bb24f7d8dc0d092a6f452e9df5223166211037cb0cae3d6cfa1fce70714cc17b"),
    (10, 7, 2, "8 6d1f68cd0e76a735adc1e4a65c1591e5823a6f0becd288fd2b59738d0a95a5d3"),
    (1000, 7, 0, "1 8a064d629c62d4b67acb226ff57eb5908fb63fafb1b3a0f7609b4dfad7135676"),
    (1000, 7, 1, "1 6992d8803d35f274a8c8f418214b937ac89298b1cf5ec639c47100242484c8b5"),
    (1000, 7, 2, "1 94fc012d1b494a6fb1ac2c11664d71985e02f63dd0077cc344e0ac58258a3f19"),
    (8, 3, 0, "1 36bccbf5375ec11a4da2e39e1ed235458dbea91609b5605f9a7f4711f46cfdc1"),
    (8, 3, 1, "1 74c2c62685a719d969d7f3a474f59bf9fadf0e3b6591ee4d94e93c249fe13db6"),
    (8, 3, 2, "1 49ff9f9b668b8340ef0ed10b4eb9b1f68a0d78f6ad70e1d75a697b309ae152f9"),
    (8, 3, 3, "1 e87386c6ef41c21c56c0a21b8007605a6b624f376f0d6f3f4d837a8d70f643fb"),
    (30, 2, 0, "3 e49ae6498e2e926ba3a2f3c85bc010fac33e6fb35b57d6eee591ec1ef623f53d"),
    (30, 2, 1, "2 e37b4edd38169f4abe7b8078440bee8933aac733d542f2a91b72f50cce525969"),
    (30, 2, 2, "3 95776dab3b382fc2134cacc7f0602e7e06767eb81cf50970d78e061fd3b95152"),
    (12, 2, 3, "1 9b56d6cd7fed497926c928bcfafc6354b709a239330ad661f495d5bcf977fc5e"),
    (10, 1, 0, "error: invalid parameter: connected_random_regular requires r >= 3 (or r = 2, n >= 3), got r = 1"),
    (5, 3, 0, "error: infeasible degree sequence: degree sum 15 is odd"),
    (4, 4, 0, "error: infeasible degree sequence: vertex 0 has degree 4 >= n = 4 (simple graph impossible)"),
];

fn check(table: &[Case], generate: Generator) {
    let mut mismatches = Vec::new();
    for &(n, r, seed, want) in table {
        let got = outcome(generate(n, r, &mut SmallRng::seed_from_u64(seed)));
        if got != want {
            mismatches.push(format!("    ({n}, {r}, {seed}, \"{got}\"),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} rows differ; this build draws:\n{}",
        mismatches.len(),
        table.len(),
        mismatches.join("\n")
    );
}

#[test]
fn steger_wormald_matches_recorded_digests() {
    check(STEGER_WORMALD, steger_wormald_counted);
}

#[test]
fn connected_random_regular_matches_recorded_digests() {
    check(CONNECTED, connected_random_regular_counted);
}
