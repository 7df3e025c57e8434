fn main() {
    println!("{}", numeric::benched());
}
