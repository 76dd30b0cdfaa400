//! Record the compiler version for the host fingerprint every result
//! carries. A compiler that cannot report its version leaves the field
//! absent rather than guessed.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    if let Some(version) = version {
        println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
